// Bytecode compiler (validated Specification -> linear threaded code).
#include "sim/bytecode.h"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/slot_resolver.h"
#include "support/diagnostics.h"

namespace specsyn {

namespace {

/// Comparison ops admissible as WaitSigExpr leaves (0/1 result, so bitwise
/// and logical combiners agree on them).
bool is_wait_cmp(BinOp op) {
  return op == BinOp::Lt || op == BinOp::Le || op == BinOp::Gt ||
         op == BinOp::Ge || op == BinOp::Eq || op == BinOp::Ne;
}

/// Combiners admissible over 0/1 leaves.
bool is_wait_comb(BinOp op) {
  return op == BinOp::And || op == BinOp::Or || op == BinOp::LogicalAnd ||
         op == BinOp::LogicalOr;
}

/// `lit OP sig` leaves store as `sig mirror(OP) lit`.
BinOp mirror_cmp(BinOp op) {
  switch (op) {
    case BinOp::Lt: return BinOp::Gt;
    case BinOp::Le: return BinOp::Ge;
    case BinOp::Gt: return BinOp::Lt;
    case BinOp::Ge: return BinOp::Le;
    default: return op;  // Eq/Ne are symmetric
  }
}

/// Matches a postfix expression that is an And/Or tree whose leaves all compare
/// one signal against a literal; fills `out` with the equivalent BWaitOp
/// postfix program. A bare signal condition (`wait sig`) is the one leaf
/// `sig != 0`. Sound to fuse because this IR has no short-circuit (operands
/// evaluate eagerly), compares yield 0/1, and signal reads fire no observer
/// callbacks.
bool collect_wait_expr(const std::vector<LOp>& pool,
                       std::vector<BWaitOp>& out) {
  if (pool.size() == 1 && pool[0].kind == LOp::Kind::PushSignal) {
    out.push_back({BWaitOp::Kind::Cmp, static_cast<uint8_t>(BinOp::Ne),
                   pool[0].slot, 0});
    return true;
  }
  const size_t end = pool.size();
  uint32_t results = 0;  // values notionally on the eval stack
  for (size_t i = 0; i < end;) {
    if (i + 2 < end) {
      const LOp& x = pool[i];
      const LOp& y = pool[i + 1];
      const LOp& z = pool[i + 2];
      if (z.kind == LOp::Kind::Binary &&
          is_wait_cmp(static_cast<BinOp>(z.op))) {
        if (x.kind == LOp::Kind::PushSignal && y.kind == LOp::Kind::PushLit) {
          out.push_back({BWaitOp::Kind::Cmp, z.op, x.slot, y.lit});
          ++results;
          i += 3;
          continue;
        }
        if (x.kind == LOp::Kind::PushLit && y.kind == LOp::Kind::PushSignal) {
          out.push_back({BWaitOp::Kind::Cmp,
                         static_cast<uint8_t>(
                             mirror_cmp(static_cast<BinOp>(z.op))),
                         y.slot, x.lit});
          ++results;
          i += 3;
          continue;
        }
      }
    }
    const LOp& o = pool[i];
    if (o.kind == LOp::Kind::Binary && results >= 2 &&
        is_wait_comb(static_cast<BinOp>(o.op))) {
      out.push_back({BWaitOp::Kind::Comb, o.op, 0, 0});
      --results;
      ++i;
      continue;
    }
    return false;  // anything else: not a pure signal-compare condition
  }
  return results == 1 && !out.empty() && out.size() <= 255;
}

}  // namespace

// ---------------------------------------------------------------------------
// compiler

class BytecodeCompiler {
 public:
  BytecodeCompiler(const Specification& spec, const VarTable& vars,
                   const SignalTable& signals)
      : spec_(spec),
        slots_(spec, vars, signals),
        bproc_of_(spec.procedures.size(), UINT32_MAX) {}

  std::shared_ptr<const BytecodeProgram> run() {
    auto out = std::shared_ptr<BytecodeProgram>(new BytecodeProgram());
    bc_ = out.get();
    compile_behavior(*spec_.top);
    // Procedures discovered at call sites compile after the unit that
    // referenced them (code is one flat array; units never nest). A pending
    // proc's body may discover further procs, extending the worklist;
    // pending_procs_[i] is the spec procedure behind bc_->procs_[i].
    for (size_t i = 0; i < pending_procs_.size(); ++i) {
      scope_ = &slots_.frame(pending_procs_[i]);
      bc_->procs_[i].code_begin = pc();
      compile_block(scope_->src->body);
      emit(BOp::EndUnit);
    }
    bc_->reg_count_ = std::max<uint32_t>(1, bc_->reg_count_);
    return out;
  }

 private:
  uint32_t pc() const { return static_cast<uint32_t>(bc_->code_.size()); }

  uint32_t emit(BOp op, uint16_t a = 0, uint16_t b = 0, uint16_t c = 0,
                uint32_t slot = 0, uint32_t aux = 0, uint64_t imm = 0) {
    bc_->code_.push_back(BInstr{op, a, b, c, slot, aux, imm});
    return pc() - 1;
  }

  void patch(uint32_t at, uint32_t target) { bc_->code_[at].aux = target; }

  /// Lowers `e`, in the current scope, into the postfix scratch pool.
  void lower(const Expr& e) {
    ops_.clear();
    depth_ = slots_.emit(e, scope_, ops_);
  }

  /// Emits micro-ops evaluating the scratch pool into register 0.
  /// Expressions always start from an empty register window, so statement
  /// compilation needs no live-range tracking: a value's postfix stack
  /// position *is* its register.
  void emit_expr() {
    if (depth_ > UINT16_MAX) {
      throw SpecError("bytecode: expression deeper than " +
                      std::to_string(UINT16_MAX) + " registers");
    }
    bc_->reg_count_ = std::max(bc_->reg_count_, depth_);
    const size_t expr_start = bc_->code_.size();
    uint16_t sp = 0;
    for (const LOp& op : ops_) {
      switch (op.kind) {
        case LOp::Kind::PushLit:
          emit(BOp::LoadLit, sp++, 0, 0, 0, 0, op.lit);
          break;
        case LOp::Kind::PushVar:
          emit(BOp::LoadVar, sp++, 0, 0, op.slot);
          break;
        case LOp::Kind::PushSignal:
          emit(BOp::LoadSig, sp++, 0, 0, op.slot);
          break;
        case LOp::Kind::PushLocal:
          emit(BOp::LoadLoc, sp++, 0, 0, op.slot);
          break;
        case LOp::Kind::Unary:
          emit(BOp::UnApply, static_cast<uint16_t>(sp - 1),
               static_cast<uint16_t>(sp - 1), 0, 0, op.op);
          break;
        case LOp::Kind::Binary: {
          // Peephole: a literal rhs loaded by the immediately preceding
          // instruction folds into its consumer (BinApplyImm); when the lhs
          // right before it is a signal read, all three collapse into one
          // SigBinImm — the dominant `sig OP k` compare shape. Safe to rewrite
          // the tail in place: both victims were emitted by this expression
          // (expr_start guard), so no recorded pc points at or past them.
          std::vector<BInstr>& code = bc_->code_;
          const size_t n = code.size();
          if (n - expr_start >= 1 && code[n - 1].op == BOp::LoadLit &&
              code[n - 1].a == sp - 1) {
            const uint64_t lit = code[n - 1].imm;
            if (n - expr_start >= 2 && code[n - 2].op == BOp::LoadSig &&
                code[n - 2].a == sp - 2) {
              const uint32_t sig = code[n - 2].slot;
              code.pop_back();
              code.pop_back();
              emit(BOp::SigBinImm, static_cast<uint16_t>(sp - 2), 0, 0, sig,
                   op.op, lit);
            } else {
              code.pop_back();
              emit(BOp::BinApplyImm, static_cast<uint16_t>(sp - 2),
                   static_cast<uint16_t>(sp - 2), 0, 0, op.op, lit);
            }
            --sp;
            break;
          }
          emit(BOp::BinApply, static_cast<uint16_t>(sp - 2),
               static_cast<uint16_t>(sp - 2), static_cast<uint16_t>(sp - 1),
               0, op.op);
          --sp;
          break;
        }
      }
    }
  }

  /// Evaluates `e` and emits a conditional branch on the result. When the
  /// whole condition compiled to one SigBinImm (the `sig OP k` loop-header
  /// shape), the compare folds into a fused compare-and-branch terminal.
  /// Returns the branch's pc for target patching (target lives in aux for
  /// fused and unfused forms alike).
  uint32_t emit_branch(bool br_true, const Expr& e, uint32_t target = 0) {
    const uint32_t start = pc();
    lower(e);
    emit_expr();
    std::vector<BInstr>& code = bc_->code_;
    if (pc() - start == 1 && code.back().op == BOp::SigBinImm) {
      const BInstr prev = code.back();
      code.pop_back();
      return emit(br_true ? BOp::SigBrTrue : BOp::SigBrFalse, 0, 0,
                  static_cast<uint16_t>(prev.aux), prev.slot, target, prev.imm);
    }
    return emit(br_true ? BOp::BrTrue : BOp::BrFalse, 0, 0, 0, 0, target);
  }

  /// The scratch pool's op when the expression is a single push, else null.
  const LOp* single_op() const {
    return ops_.size() == 1 ? ops_.data() : nullptr;
  }

  /// AssignLoad/SigLoad source kind of a single-push op, or UINT8_MAX.
  static uint8_t load_kind(const LOp& op) {
    switch (op.kind) {
      case LOp::Kind::PushVar: return kSrcVar;
      case LOp::Kind::PushSignal: return kSrcSig;
      case LOp::Kind::PushLocal: return kSrcLoc;
      default: return UINT8_MAX;
    }
  }

  uint32_t add_wait_site(const Expr& cond) {
    BWaitSite site;
    slots_.wait_signals(cond, site.signals);
    site.cond = &cond;
    bc_->wait_sites_.push_back(std::move(site));
    return static_cast<uint32_t>(bc_->wait_sites_.size() - 1);
  }

  /// Dense BProc index of spec procedure `idx`, queueing its body for
  /// compilation the first time it is called.
  uint32_t bproc_of(uint32_t idx) {
    if (bproc_of_[idx] != UINT32_MAX) return bproc_of_[idx];
    const auto bidx = static_cast<uint32_t>(bc_->procs_.size());
    BProc bp;
    bp.local_types = slots_.frame(idx).local_types;
    bc_->max_proc_locals_ = std::max(
        bc_->max_proc_locals_, static_cast<uint32_t>(bp.local_types.size()));
    bc_->procs_.push_back(std::move(bp));
    bproc_of_[idx] = bidx;
    pending_procs_.push_back(idx);
    return bidx;
  }

  void compile_stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::Assign: {
        const LTarget target = slots_.target(s.target, scope_);
        const bool local = target.scope == LTarget::Scope::Local;
        lower(*s.expr);
        if (const LOp* op = single_op()) {
          if (op->kind == LOp::Kind::PushLit) {
            emit(local ? BOp::AssignImmLoc : BOp::AssignImmVar, 0, 0, 0,
                 target.slot, 0, op->lit);
            return;
          }
          if (const uint8_t kind = load_kind(*op); kind != UINT8_MAX) {
            emit(BOp::AssignLoad,
                 static_cast<uint8_t>(kind | (local ? kTargetLocalBit : 0)), 0,
                 0, target.slot, op->slot);
            return;
          }
        }
        emit_expr();
        emit(local ? BOp::StLoc : BOp::StVar, 0, 0, 0, target.slot);
        return;
      }
      case Stmt::Kind::SignalAssign: {
        const uint32_t signal = slots_.signal(s.target);
        lower(*s.expr);
        if (const LOp* op = single_op()) {
          if (op->kind == LOp::Kind::PushLit) {
            emit(BOp::SigImm, 0, 0, 0, signal, 0, op->lit);
            return;
          }
          if (const uint8_t kind = load_kind(*op); kind != UINT8_MAX) {
            emit(BOp::SigLoad, kind, 0, 0, signal, op->slot);
            return;
          }
        }
        emit_expr();
        emit(BOp::StSig, 0, 0, 0, signal);
        return;
      }
      case Stmt::Kind::If: {
        // Like the other tiers, which push a block frame only for a
        // non-empty branch, an empty branch compiles to nothing.
        if (!s.then_block.empty()) {
          const uint32_t brf = emit_branch(false, *s.expr);
          compile_block(s.then_block);
          const uint32_t jend = emit(BOp::Jump);
          if (!s.else_block.empty()) {
            patch(brf, pc());
            compile_block(s.else_block);
            const uint32_t jend2 = emit(BOp::Jump);
            patch(jend2, pc());
          } else {
            patch(brf, pc());
          }
          patch(jend, pc());
        } else if (!s.else_block.empty()) {
          const uint32_t brt = emit_branch(true, *s.expr);
          compile_block(s.else_block);
          const uint32_t jend = emit(BOp::Jump);
          patch(brt, pc());
          patch(jend, pc());
        } else {
          // Both branches empty: the condition still evaluates (observer
          // reads) and the statement still costs its one step.
          const uint32_t brf = emit_branch(false, *s.expr);
          patch(brf, pc());
        }
        return;
      }
      case Stmt::Kind::While: {
        const uint32_t brf = emit_branch(false, *s.expr);
        const uint32_t body = pc();
        loops_.push_back({});
        compile_block(s.then_block);
        // Latch: re-evaluate the condition (one step, like the lowered
        // tier's block-end re-check) and restart the body while true. The
        // body reused the scratch pool, so the condition lowers again.
        emit_branch(true, *s.expr, body);
        patch(brf, pc());
        for (uint32_t fix : loops_.back().end_fixups) patch(fix, pc());
        loops_.pop_back();
        return;
      }
      case Stmt::Kind::Loop: {
        // The loop statement itself costs one step (frame push in the other
        // tiers); an unconditional jump to the body preserves that.
        const uint32_t enter = emit(BOp::Jump);
        patch(enter, pc());
        const uint32_t body = pc();
        loops_.push_back({});
        compile_block(s.then_block);
        emit(BOp::Jump, 0, 0, 0, 0, body);
        for (uint32_t fix : loops_.back().end_fixups) patch(fix, pc());
        loops_.pop_back();
        return;
      }
      case Stmt::Kind::Wait: {
        const uint32_t site = add_wait_site(*s.expr);
        lower(*s.expr);
        // Signal-only conditions — `wait sig == k`, `wait sig`, handshakes
        // (`ack == 1 && busy == 0`) and slave address decodes (`start == 1 &&
        // (addr == 0 || ...)`) — fuse into WaitSigExpr: every blocked
        // re-check, the hot path of bus-protocol waits, evaluates the whole
        // condition in one dispatch.
        wait_scratch_.clear();
        if (collect_wait_expr(ops_, wait_scratch_)) {
          const auto first = static_cast<uint32_t>(bc_->wait_ops_.size());
          bc_->wait_ops_.insert(bc_->wait_ops_.end(), wait_scratch_.begin(),
                                wait_scratch_.end());
          emit(BOp::WaitSigExpr, 0,
               static_cast<uint16_t>(wait_scratch_.size()), 0, first, site);
          return;
        }
        emit_expr();
        emit(BOp::WaitTrue, 0, 0, 0, site);
        return;
      }
      case Stmt::Kind::Delay:
        emit(BOp::DelayStep, 0, 0, 0, 0, 0, std::max<uint64_t>(s.delay, 1));
        return;
      case Stmt::Kind::Call: {
        BCallSite site;
        const uint32_t callee = slots_.proc_index(s.callee);
        site.proc = bproc_of(callee);
        const Procedure& proc = spec_.procedures[callee];
        for (size_t i = 0; i < proc.params.size(); ++i) {
          const auto param = static_cast<uint32_t>(i);
          if (proc.params[i].is_out) {
            // Validated call sites pass a plain variable name for
            // out-params; it resolves in the *caller's* scope (where the
            // copy-back runs).
            const LTarget dest = slots_.target(s.args[i]->name, scope_);
            site.out_binds.emplace_back(
                param,
                BTarget{dest.scope == LTarget::Scope::Local ? uint8_t{1}
                                                            : uint8_t{0},
                        dest.slot});
          } else {
            lower(*s.args[i]);
            emit_expr();
            emit(BOp::ArgStage, 0, 0, 0, param);
            site.in_params.push_back(param);
          }
        }
        const uint32_t idx = static_cast<uint32_t>(bc_->call_sites_.size());
        bc_->call_sites_.push_back(std::move(site));
        emit(BOp::Call, 0, 0, 0, idx);
        return;
      }
      case Stmt::Kind::Break: {
        if (loops_.empty()) {
          throw SpecError("bytecode: break outside of loop");
        }
        loops_.back().end_fixups.push_back(emit(BOp::Jump));
        return;
      }
      case Stmt::Kind::Nop:
        emit(BOp::NopStmt);
        return;
    }
  }

  void compile_block(const StmtList& stmts) {
    for (const StmtPtr& s : stmts) compile_stmt(*s);
  }

  /// Compiles `b` and its subtree; ids are dense pre-order indices, the
  /// numbering SpecIndex and the lowered Program use too. Returns b's id.
  uint32_t compile_behavior(const Behavior& b) {
    const auto id = static_cast<uint32_t>(bc_->behaviors_.size());
    bc_->behaviors_.emplace_back();
    bc_->behaviors_[id].src = &b;
    bc_->behaviors_[id].id = id;
    bc_->behaviors_[id].kind = b.kind;
    scope_ = nullptr;
    if (b.kind == BehaviorKind::Leaf) {
      bc_->behaviors_[id].body = pc();
      compile_block(b.body);
      emit(BOp::EndUnit);
      return id;
    }
    if (b.kind == BehaviorKind::Sequential) {
      std::vector<std::vector<BBehavior::BTrans>> arcs(b.children.size());
      for (const Transition& t : b.transitions) {
        BBehavior::BTrans bt;
        bt.next = t.completes() ? BBehavior::kComplete
                                : static_cast<uint32_t>(b.child_index(t.to));
        if (t.guard) {
          bt.has_guard = true;
          bt.guard = pc();
          lower(*t.guard);
          emit_expr();
          emit(BOp::GuardEnd);
        }
        arcs[b.child_index(t.from)].push_back(bt);
      }
      bc_->behaviors_[id].child_trans = std::move(arcs);
    }
    for (const BehaviorPtr& c : b.children) {
      const uint32_t child = compile_behavior(*c);
      bc_->behaviors_[id].children.push_back(child);
    }
    return id;
  }

  struct LoopCtx {
    std::vector<uint32_t> end_fixups;
  };

  const Specification& spec_;
  SlotResolver slots_;
  BytecodeProgram* bc_ = nullptr;
  /// Procedure whose body is compiling (null in behavior bodies and guards).
  const SlotResolver::Frame* scope_ = nullptr;
  /// Postfix scratch pool of the expression being compiled, and its depth.
  std::vector<LOp> ops_;
  uint32_t depth_ = 0;
  std::vector<BWaitOp> wait_scratch_;
  std::vector<LoopCtx> loops_;
  std::vector<uint32_t> bproc_of_;       // by spec procedure: BProc or MAX
  std::vector<uint32_t> pending_procs_;  // by BProc: spec procedure
};

std::shared_ptr<const BytecodeProgram> BytecodeProgram::compile(
    const Specification& spec, const VarTable& vars,
    const SignalTable& signals) {
  if (!spec.top) throw SpecError("compile: specification has no top behavior");
  return BytecodeCompiler(spec, vars, signals).run();
}

}  // namespace specsyn
