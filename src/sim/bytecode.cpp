// Bytecode compiler (Program -> linear threaded code).
#include "sim/bytecode.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

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

/// Matches a postfix range that is an And/Or tree whose leaves all compare
/// one signal against a literal; fills `out` with the equivalent BWaitOp
/// postfix program. A bare signal condition (`wait sig`) is the one leaf
/// `sig != 0`. Sound to fuse because this IR has no short-circuit (operands
/// evaluate eagerly), compares yield 0/1, and signal reads fire no observer
/// callbacks.
bool collect_wait_expr(const LOp* pool, const LExpr& e,
                       std::vector<BWaitOp>& out) {
  if (e.count == 1 && pool[e.first].kind == LOp::Kind::PushSignal) {
    out.push_back({BWaitOp::Kind::Cmp, static_cast<uint8_t>(BinOp::Ne),
                   pool[e.first].slot, 0});
    return true;
  }
  const uint32_t end = e.first + e.count;
  uint32_t results = 0;  // values notionally on the eval stack
  for (uint32_t i = e.first; i < end;) {
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

/// Postfix evaluation depth of an LExpr (net is always 1 on a valid pool).
uint32_t expr_depth(const LOp* ops, const LExpr& e) {
  uint32_t depth = 0;
  uint32_t max_depth = 0;
  for (uint32_t i = 0; i < e.count; ++i) {
    switch (ops[e.first + i].kind) {
      case LOp::Kind::PushLit:
      case LOp::Kind::PushVar:
      case LOp::Kind::PushSignal:
      case LOp::Kind::PushLocal:
        max_depth = std::max(max_depth, ++depth);
        break;
      case LOp::Kind::Unary:
        break;
      case LOp::Kind::Binary:
        --depth;
        break;
    }
  }
  return max_depth;
}

}  // namespace

// ---------------------------------------------------------------------------
// compiler

class BytecodeCompiler {
 public:
  explicit BytecodeCompiler(const Program& prog) : prog_(prog) {}

  std::shared_ptr<const BytecodeProgram> run() {
    auto out = std::shared_ptr<BytecodeProgram>(new BytecodeProgram());
    bc_ = out.get();
    bc_->behaviors_.resize(prog_.behavior_count());
    compile_behavior(*prog_.root());
    // Procedures discovered at call sites compile after the unit that
    // referenced them (code is one flat array; units never nest). A pending
    // proc's body may discover further procs, extending the worklist.
    for (size_t i = 0; i < pending_procs_.size(); ++i) {
      const LProc* lp = pending_procs_[i];
      bc_->procs_[proc_index_.at(lp)].code_begin = pc();
      compile_block(*lp->body);
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

  const LOp* ops() const { return prog_.ops().data(); }

  /// Emits micro-ops evaluating `e` into register 0. Expressions always
  /// start from an empty register window, so statement compilation needs no
  /// live-range tracking: a value's postfix stack position *is* its register.
  void emit_expr(const LExpr& e) {
    const uint32_t depth = expr_depth(ops(), e);
    if (depth > UINT16_MAX) {
      throw SpecError("bytecode: expression deeper than " +
                      std::to_string(UINT16_MAX) + " registers");
    }
    bc_->reg_count_ = std::max(bc_->reg_count_, depth);
    const size_t expr_start = bc_->code_.size();
    uint16_t sp = 0;
    for (uint32_t i = 0; i < e.count; ++i) {
      const LOp& op = ops()[e.first + i];
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
  uint32_t emit_branch(bool br_true, const LExpr& e, uint32_t target = 0) {
    const uint32_t start = pc();
    emit_expr(e);
    std::vector<BInstr>& code = bc_->code_;
    if (pc() - start == 1 && code.back().op == BOp::SigBinImm) {
      const BInstr prev = code.back();
      code.pop_back();
      return emit(br_true ? BOp::SigBrTrue : BOp::SigBrFalse, 0, 0,
                  static_cast<uint16_t>(prev.aux), prev.slot, target, prev.imm);
    }
    return emit(br_true ? BOp::BrTrue : BOp::BrFalse, 0, 0, 0, 0, target);
  }

  /// Single-op expression, or count == 0 sentinel when not fusible.
  const LOp* single_op(const LExpr& e) const {
    return e.count == 1 ? ops() + e.first : nullptr;
  }

  uint32_t add_wait_site(const LStmt& s) {
    BWaitSite site;
    site.signals = s.wait_signals;
    site.cond = s.src->expr.get();
    bc_->wait_sites_.push_back(std::move(site));
    return static_cast<uint32_t>(bc_->wait_sites_.size() - 1);
  }

  uint32_t proc_index(const LProc* lp) {
    auto it = proc_index_.find(lp);
    if (it != proc_index_.end()) return it->second;
    const uint32_t idx = static_cast<uint32_t>(bc_->procs_.size());
    BProc bp;
    bp.local_types = lp->local_types;
    bc_->procs_.push_back(std::move(bp));
    bc_->max_proc_locals_ = std::max(
        bc_->max_proc_locals_, static_cast<uint32_t>(lp->local_types.size()));
    proc_index_.emplace(lp, idx);
    pending_procs_.push_back(lp);
    return idx;
  }

  void compile_stmt(const LStmt& s) {
    switch (s.kind) {
      case Stmt::Kind::Assign: {
        const bool local = s.target.scope == LTarget::Scope::Local;
        if (const LOp* op = single_op(s.expr)) {
          if (op->kind == LOp::Kind::PushLit) {
            emit(local ? BOp::AssignImmLoc : BOp::AssignImmVar, 0, 0, 0,
                 s.target.slot, 0, op->lit);
            return;
          }
          uint8_t kind = UINT8_MAX;
          if (op->kind == LOp::Kind::PushVar) kind = kSrcVar;
          if (op->kind == LOp::Kind::PushSignal) kind = kSrcSig;
          if (op->kind == LOp::Kind::PushLocal) kind = kSrcLoc;
          if (kind != UINT8_MAX) {
            emit(BOp::AssignLoad,
                 static_cast<uint8_t>(kind | (local ? kTargetLocalBit : 0)), 0,
                 0, s.target.slot, op->slot);
            return;
          }
        }
        emit_expr(s.expr);
        emit(local ? BOp::StLoc : BOp::StVar, 0, 0, 0, s.target.slot);
        return;
      }
      case Stmt::Kind::SignalAssign: {
        if (const LOp* op = single_op(s.expr)) {
          if (op->kind == LOp::Kind::PushLit) {
            emit(BOp::SigImm, 0, 0, 0, s.signal, 0, op->lit);
            return;
          }
          uint8_t kind = UINT8_MAX;
          if (op->kind == LOp::Kind::PushVar) kind = kSrcVar;
          if (op->kind == LOp::Kind::PushSignal) kind = kSrcSig;
          if (op->kind == LOp::Kind::PushLocal) kind = kSrcLoc;
          if (kind != UINT8_MAX) {
            emit(BOp::SigLoad, kind, 0, 0, s.signal, op->slot);
            return;
          }
        }
        emit_expr(s.expr);
        emit(BOp::StSig, 0, 0);
        bc_->code_.back().slot = s.signal;
        return;
      }
      case Stmt::Kind::If: {
        if (s.then_block != nullptr) {
          const uint32_t brf = emit_branch(false, s.expr);
          compile_block(*s.then_block);
          const uint32_t jend = emit(BOp::Jump);
          if (s.else_block != nullptr) {
            patch(brf, pc());
            compile_block(*s.else_block);
            const uint32_t jend2 = emit(BOp::Jump);
            patch(jend2, pc());
          } else {
            patch(brf, pc());
          }
          patch(jend, pc());
        } else if (s.else_block != nullptr) {
          const uint32_t brt = emit_branch(true, s.expr);
          compile_block(*s.else_block);
          const uint32_t jend = emit(BOp::Jump);
          patch(brt, pc());
          patch(jend, pc());
        } else {
          // Both branches empty: the condition still evaluates (observer
          // reads) and the statement still costs its one step.
          const uint32_t brf = emit_branch(false, s.expr);
          patch(brf, pc());
        }
        return;
      }
      case Stmt::Kind::While: {
        const uint32_t brf = emit_branch(false, s.expr);
        const uint32_t body = pc();
        loops_.push_back({});
        compile_block(*s.then_block);
        // Latch: re-evaluate the condition (one step, like the lowered
        // tier's block-end re-check) and restart the body while true.
        emit_branch(true, s.expr, body);
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
        compile_block(*s.then_block);
        emit(BOp::Jump, 0, 0, 0, 0, body);
        for (uint32_t fix : loops_.back().end_fixups) patch(fix, pc());
        loops_.pop_back();
        return;
      }
      case Stmt::Kind::Wait: {
        const uint32_t site = add_wait_site(s);
        // Signal-only conditions — `wait sig == k`, `wait sig`, handshakes
        // (`ack == 1 && busy == 0`) and slave address decodes (`start == 1 &&
        // (addr == 0 || ...)`) — fuse into WaitSigExpr: every blocked
        // re-check, the hot path of bus-protocol waits, evaluates the whole
        // condition in one dispatch.
        if (std::vector<BWaitOp> wops;
            collect_wait_expr(ops(), s.expr, wops)) {
          const uint32_t first =
              static_cast<uint32_t>(bc_->wait_ops_.size());
          bc_->wait_ops_.insert(bc_->wait_ops_.end(), wops.begin(),
                                wops.end());
          emit(BOp::WaitSigExpr, 0, static_cast<uint16_t>(wops.size()), 0,
               first, site);
          return;
        }
        emit_expr(s.expr);
        emit(BOp::WaitTrue, 0, 0, 0, site);
        return;
      }
      case Stmt::Kind::Delay:
        emit(BOp::DelayStep, 0, 0, 0, 0, 0, std::max<uint64_t>(s.delay, 1));
        return;
      case Stmt::Kind::Call: {
        BCallSite site;
        site.proc = proc_index(s.proc);
        for (const LCallArg& a : s.in_args) {
          emit_expr(a.in);
          emit(BOp::ArgStage, 0, 0, 0, a.param);
          site.in_params.push_back(a.param);
        }
        for (const auto& [param, dest] : s.out_binds) {
          site.out_binds.emplace_back(
              param, BTarget{dest.scope == LTarget::Scope::Local
                                 ? uint8_t{1}
                                 : uint8_t{0},
                             dest.slot});
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

  void compile_block(const LBlock& blk) {
    for (const LStmt& s : blk.stmts) compile_stmt(s);
  }

  void compile_behavior(const LBehavior& lb) {
    BBehavior& b = bc_->behaviors_[lb.id];
    b.src = lb.src;
    b.id = lb.id;
    b.kind = lb.kind;
    if (lb.kind == BehaviorKind::Leaf) {
      b.body = pc();
      compile_block(*lb.body);
      emit(BOp::EndUnit);
      return;
    }
    for (const LBehavior* c : lb.children) b.children.push_back(c->id);
    b.child_trans.resize(lb.child_trans.size());
    for (size_t i = 0; i < lb.child_trans.size(); ++i) {
      for (const LBehavior::LTrans& t : lb.child_trans[i]) {
        BBehavior::BTrans bt;
        bt.has_guard = t.has_guard;
        bt.next = t.next;
        if (t.has_guard) {
          bt.guard = pc();
          emit_expr(t.guard);
          emit(BOp::GuardEnd);
        }
        b.child_trans[i].push_back(bt);
      }
    }
    for (const LBehavior* c : lb.children) compile_behavior(*c);
  }

  struct LoopCtx {
    std::vector<uint32_t> end_fixups;
  };

  const Program& prog_;
  BytecodeProgram* bc_ = nullptr;
  std::vector<LoopCtx> loops_;
  std::map<const LProc*, uint32_t> proc_index_;
  std::vector<const LProc*> pending_procs_;
};

std::shared_ptr<const BytecodeProgram> BytecodeProgram::compile(
    const Program& prog) {
  return BytecodeCompiler(prog).run();
}

}  // namespace specsyn
