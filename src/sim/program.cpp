// Lowering pass: Specification -> Program (see program.h for the model).
//
// Name resolution, postfix emission and wait sensitivity are the rules the
// bytecode compiler applies too; both take them from SlotResolver
// (sim/slot_resolver.h).
#include "sim/program.h"

#include <algorithm>

namespace specsyn {

namespace {

/// Layout of the procedure being compiled (null at specification scope:
/// behavior bodies and transition guards).
using Frame = SlotResolver::Frame;

}  // namespace

class ProgramCompiler {
 public:
  ProgramCompiler(const Specification& spec, const VarTable& vars,
                  const SignalTable& signals)
      : spec_(spec), slots_(spec, vars, signals) {}

  std::unique_ptr<const Program> run() {
    auto prog = std::unique_ptr<Program>(new Program());
    prog_ = prog.get();
    prog_->ops_.reserve(512);

    // Allocate procedure shells first so call sites (including calls between
    // procedures) can resolve the callee before its body is compiled.
    // procs_[i] lowers spec_.procedures[i].
    for (uint32_t i = 0; i < spec_.procedures.size(); ++i) {
      auto lp = std::make_unique<LProc>();
      lp->src = &spec_.procedures[i];
      lp->local_types = slots_.frame(i).local_types;
      prog_->procs_.push_back(std::move(lp));
    }
    for (uint32_t i = 0; i < prog_->procs_.size(); ++i) {
      prog_->procs_[i]->body =
          compile_block(spec_.procedures[i].body, &slots_.frame(i));
    }

    prog_->root_ = compile_behavior(*spec_.top);
    prog_->max_stack_ = max_stack_;
    return prog;
  }

 private:
  const LBehavior* compile_behavior(const Behavior& b) {
    auto lb = std::make_unique<LBehavior>();
    LBehavior* out = lb.get();
    out->src = &b;
    out->id = static_cast<uint32_t>(prog_->behaviors_.size());
    out->kind = b.kind;
    prog_->behaviors_.push_back(std::move(lb));

    switch (b.kind) {
      case BehaviorKind::Leaf:
        out->body = compile_block(b.body, nullptr);
        break;
      case BehaviorKind::Sequential:
      case BehaviorKind::Concurrent:
        for (const BehaviorPtr& c : b.children) {
          out->children.push_back(compile_behavior(*c));
        }
        if (b.kind == BehaviorKind::Sequential) {
          out->child_trans.resize(b.children.size());
          for (const Transition& t : b.transitions) {
            LBehavior::LTrans arc;
            if (t.guard) {
              arc.has_guard = true;
              compile_expr(*t.guard, nullptr, arc.guard);
            }
            arc.next = t.completes()
                           ? LBehavior::kComplete
                           : static_cast<uint32_t>(b.child_index(t.to));
            out->child_trans[b.child_index(t.from)].push_back(std::move(arc));
          }
        }
        break;
    }
    return out;
  }

  const LBlock* compile_block(const StmtList& stmts, const Frame* scope) {
    auto blk = std::make_unique<LBlock>();
    LBlock* out = blk.get();
    prog_->blocks_.push_back(std::move(blk));
    out->stmts.reserve(stmts.size());
    for (const StmtPtr& s : stmts) out->stmts.push_back(compile_stmt(*s, scope));
    return out;
  }

  LStmt compile_stmt(const Stmt& s, const Frame* scope) {
    LStmt out;
    out.kind = s.kind;
    out.src = &s;
    switch (s.kind) {
      case Stmt::Kind::Assign:
        out.target = slots_.target(s.target, scope);
        compile_expr(*s.expr, scope, out.expr);
        break;
      case Stmt::Kind::SignalAssign:
        out.signal = slots_.signal(s.target);
        compile_expr(*s.expr, scope, out.expr);
        break;
      case Stmt::Kind::If:
        compile_expr(*s.expr, scope, out.expr);
        // The interpreter only pushes a block frame for a non-empty branch.
        if (!s.then_block.empty()) out.then_block = compile_block(s.then_block, scope);
        if (!s.else_block.empty()) out.else_block = compile_block(s.else_block, scope);
        break;
      case Stmt::Kind::While:
      case Stmt::Kind::Loop:
        if (s.expr) compile_expr(*s.expr, scope, out.expr);
        out.then_block = compile_block(s.then_block, scope);
        break;
      case Stmt::Kind::Wait:
        compile_expr(*s.expr, scope, out.expr);
        slots_.wait_signals(*s.expr, out.wait_signals);
        break;
      case Stmt::Kind::Delay:
        out.delay = s.delay;
        break;
      case Stmt::Kind::Call: {
        out.proc = prog_->procs_[slots_.proc_index(s.callee)].get();
        const Procedure& proc = *out.proc->src;
        for (size_t i = 0; i < proc.params.size(); ++i) {
          const auto param = static_cast<uint32_t>(i);
          if (proc.params[i].is_out) {
            // Validated call sites pass a plain variable name for out-params;
            // it resolves in the *caller's* scope (where the copy-back runs).
            out.out_binds.emplace_back(param,
                                       slots_.target(s.args[i]->name, scope));
          } else {
            LCallArg arg;
            arg.param = param;
            compile_expr(*s.args[i], scope, arg.in);
            out.in_args.push_back(std::move(arg));
          }
        }
        break;
      }
      case Stmt::Kind::Break:
      case Stmt::Kind::Nop:
        break;
    }
    return out;
  }

  // Emission from one expression tree is a complete recursion before the
  // next compile_expr starts, so each LExpr's ops are contiguous in the pool.
  void compile_expr(const Expr& e, const Frame* scope,
                    LExpr& out) {
    out.first = static_cast<uint32_t>(prog_->ops_.size());
    max_stack_ = std::max(max_stack_, slots_.emit(e, scope, prog_->ops_));
    out.count = static_cast<uint32_t>(prog_->ops_.size()) - out.first;
  }

  const Specification& spec_;
  SlotResolver slots_;
  Program* prog_ = nullptr;
  uint32_t max_stack_ = 0;
};

std::unique_ptr<const Program> Program::compile(const Specification& spec,
                                                const VarTable& vars,
                                                const SignalTable& signals) {
  if (!spec.top) throw SpecError("lowering: specification has no top behavior");
  return ProgramCompiler(spec, vars, signals).run();
}

}  // namespace specsyn
