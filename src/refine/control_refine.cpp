#include "refine/control_refine.h"

#include "refine/protocol.h"
#include "spec/builder.h"

namespace specsyn {

using namespace build;

namespace {

class ControlRefiner {
 public:
  ControlRefiner(const Partition& part, LeafScheme scheme)
      : part_(part), scheme_(scheme) {
    result_.components.resize(part.allocation().size());
  }

  ControlRefineResult run() {
    const Specification& spec = part_.spec();
    if (!spec.top) throw SpecError("control refinement: empty specification");
    const size_t home = part_.component_of_behavior(spec.top->name);
    result_.components[home].main = transform(*spec.top, home);
    return std::move(result_);
  }

 private:
  /// Clones `b` for placement on `host` component, stubbing out children
  /// pinned elsewhere and stripping variable declarations.
  BehaviorPtr transform(const Behavior& b, size_t host) {
    auto out = std::make_unique<Behavior>();
    out->name = b.name;
    out->kind = b.kind;
    out->signals = b.signals;  // signals stay with the behavior
    // Variables move to memory modules; only refinement-introduced temps
    // (added later by data refinement) will live on behaviors.
    out->loc = b.loc;
    if (b.is_leaf()) {
      out->body = Stmt::clone_list(b.body);
      return out;
    }
    for (const Transition& t : b.transitions) {
      out->transitions.push_back(t.clone());
    }
    for (const auto& child : b.children) {
      const size_t child_comp = part_.component_of_behavior(child->name);
      if (child_comp == host) {
        out->children.push_back(transform(*child, host));
        continue;
      }
      // Cut: stub here, server there.
      make_server(*child, child_comp);
      out->children.push_back(make_stub(child->name));
      const std::string stub_name = child->name + control_naming::kStub;
      for (Transition& t : out->transitions) {
        if (t.from == child->name) t.from = stub_name;
        if (t.to == child->name) t.to = stub_name;
      }
    }
    return out;
  }

  BehaviorPtr make_stub(const std::string& b) {
    const std::string start = b + bus_naming::kStart;
    const std::string done_sig = b + bus_naming::kDone;
    return leaf(b + control_naming::kStub,
                block(set(start, 1), wait_eq(done_sig, 1), set(start, 0),
                      wait_eq(done_sig, 0)));
  }

  void make_server(const Behavior& b, size_t target) {
    const std::string start = b.name + bus_naming::kStart;
    const std::string done_sig = b.name + bus_naming::kDone;
    result_.signals.push_back(signal(start));
    result_.signals.push_back(signal(done_sig));
    result_.moved_behaviors.push_back(b.name);

    BehaviorPtr inner = transform(b, target);

    BehaviorPtr server;
    if (inner->is_leaf() && scheme_ == LeafScheme::LoopLeaf) {
      // Figure 4(b): wait / body / set, inside one loop leaf.
      StmtList body = block(wait_eq(start, 1));
      for (auto& s : inner->body) body.push_back(std::move(s));
      StmtList tail = block(set(done_sig, 1), wait_eq(start, 0),
                            set(done_sig, 0));
      for (auto& s : tail) body.push_back(std::move(s));
      server = leaf(b.name + control_naming::kServer,
                    block(loop(std::move(body))));
      server->signals = std::move(inner->signals);
    } else {
      // Figure 4(c): wrapper sequential composite looping forever.
      auto waiter = leaf(b.name + "_WAIT", block(wait_eq(start, 1)));
      auto setter = leaf(b.name + "_SETDONE",
                         block(set(done_sig, 1), wait_eq(start, 0),
                               set(done_sig, 0)));
      server = seq(b.name + control_naming::kServer,
                   behaviors(std::move(waiter), std::move(inner),
                             std::move(setter)),
                   arcs(on(b.name + "_SETDONE", b.name + "_WAIT")));
    }
    result_.components[target].servers.push_back(std::move(server));
  }

  const Partition& part_;
  LeafScheme scheme_;
  ControlRefineResult result_;
};

}  // namespace

ControlRefineResult control_refine(const Partition& part, LeafScheme scheme) {
  return ControlRefiner(part, scheme).run();
}

}  // namespace specsyn
