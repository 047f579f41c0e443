// Third execution tier: linear threaded-code bytecode.
//
// The lowered interpreter (sim/program.h + interp_lowered.cpp) already
// resolves names to slots, but it still walks a block/frame tree per step and
// evaluates pooled postfix expressions against a value stack. This tier
// flattens each leaf-behavior body and procedure body into one contiguous
// instruction array:
//
//   * control flow (if/while/loop/break) becomes pc jumps — no Block frames
//     are pushed or popped in the steady state, only Call frames remain,
//   * postfix expression ops become register micro-ops: the stack-depth
//     position of every intermediate value is known at compile time, so it is
//     assigned a fixed register index in the simulator's register file, which
//     is sized to the deepest expression (reg_count()),
//   * hot single-statement shapes are fused into superinstructions
//     (WaitSigExpr for signal-only waits, SigImm for `sig <= k`,
//     AssignImm/AssignLoad for constant and copy assignments) — fusion never
//     crosses a statement boundary because every statement must still consume
//     exactly one scheduling step (one cycle) to stay bit-identical with the
//     other two tiers.
//
// Instructions split into *micro-ops* (expression evaluation; consume no
// scheduling step) and *statement terminals* (end the step and re-enqueue the
// process). interp_bytecode.cpp dispatches them with computed goto (a GNU
// extension GCC and Clang both implement). This is the default tier
// (default_exec_tier()).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/program.h"

namespace specsyn {

/// Bytecode operations. Micro-ops first, then statement terminals; the
/// interpreter relies only on the enum values fitting in a uint8_t.
enum class BOp : uint8_t {
  // -- expression micro-ops (no scheduling step) --
  LoadLit,    // regs[a] = imm
  LoadVar,    // regs[a] = vars[slot]        (fires on_var_read when observed)
  LoadSig,    // regs[a] = signals[slot]
  LoadLoc,    // regs[a] = locals[slot] of the innermost call frame
  UnApply,    // regs[a] = apply_unop(aux, regs[b])
  BinApply,   // regs[a] = apply_binop(aux, regs[b], regs[c])
  ArgStage,   // staging[slot] = regs[b]     (pending in-arg of the next Call)
  GuardEnd,   // end of a transition-guard unit; result in regs[b]
  // Fused micro-ops (compiler peephole; dominant compare-with-literal shapes)
  BinApplyImm,  // regs[a] = apply_binop(aux, regs[b], imm)
  SigBinImm,    // regs[a] = apply_binop(aux, signals[slot], imm)

  // -- statement terminals (consume one scheduling step) --
  StVar,         // vars[slot] = regs[b]
  StLoc,         // locals[slot] = wrap(regs[b])
  StSig,         // schedule signals[slot] <= regs[b]
  AssignImmVar,  // vars[slot] = imm                       (superinstruction)
  AssignImmLoc,  // locals[slot] = wrap(imm)               (superinstruction)
  AssignLoad,    // target[slot] = source[aux]; a = target scope | src kind
  SigImm,        // schedule signals[slot] <= imm          (superinstruction)
  SigLoad,       // schedule signals[slot] <= source[aux]  (superinstruction)
  Jump,          // pc = aux
  BrFalse,       // pc = regs[b] ? pc+1 : aux
  BrTrue,        // pc = regs[b] ? aux : pc+1
  // Fused compare-and-branch (c = BinOp): branch on binop(c, signals[slot],
  // imm) without round-tripping the compare through a register.
  SigBrFalse,    // pc = binop(c, signals[slot], imm) ? pc+1 : aux
  SigBrTrue,     // pc = binop(c, signals[slot], imm) ? aux : pc+1
  WaitTrue,      // advance if regs[b] != 0, else block on wait site slot
  // Fused signal-condition wait: advance iff the postfix program
  // wait_ops[slot, slot+b) — compare leaves (sig OP lit) under And/Or
  // combiners — evaluates nonzero, else block (site aux). `wait sig == k`
  // and `wait sig` are one-leaf programs; handshake and address-decode waits
  // (`start == 1 && (addr == 0 || addr == 1 || ...)`) re-check in one
  // dispatch instead of a guard-chain re-evaluation.
  WaitSigExpr,
  DelayStep,     // re-enqueue at now + imm (imm = max(delay, 1) cycles)
  Call,          // activate call_sites[slot]
  EndUnit,       // leaf/procedure body finished: pop the Code frame
  NopStmt,       // the `nop` statement
};

/// Number of BOp values.
inline constexpr uint8_t kBOpCount = static_cast<uint8_t>(BOp::NopStmt) + 1;

/// AssignLoad/SigLoad source kinds (BInstr::a low bits).
enum : uint8_t { kSrcVar = 0, kSrcSig = 1, kSrcLoc = 2 };
/// AssignLoad target scope flag (BInstr::a bit 2): set = local target.
inline constexpr uint8_t kTargetLocalBit = 4;

/// One fixed-size bytecode instruction.
struct BInstr {
  BOp op = BOp::NopStmt;
  uint16_t a = 0;     // dst register / scope + src-kind bits
  uint16_t b = 0;     // src register / WaitSigExpr leaf count
  uint16_t c = 0;     // second src register / SigBr* BinOp
  uint32_t slot = 0;  // var/signal/local slot, call-site or wait-pool index
  uint32_t aux = 0;   // jump target, UnOp/BinOp code, wait-site index, slot
  uint64_t imm = 0;   // literal
};
static_assert(sizeof(BInstr) == 24);

/// Pre-resolved assignment destination (out-parameter copy-backs).
struct BTarget {
  uint8_t scope = 0;  // 0 = spec variable, 1 = procedure local
  uint32_t slot = 0;
};

/// Dense layout of one procedure: entry pc plus the wrap types of its
/// params-then-locals activation record.
struct BProc {
  uint32_t code_begin = 0;
  std::vector<Type> local_types;
};

/// One call statement: which procedure, which staged in-params to copy into
/// the fresh activation record, and where out-params land afterwards.
struct BCallSite {
  uint32_t proc = 0;
  std::vector<uint32_t> in_params;  // staged param slots, parameter order
  std::vector<std::pair<uint32_t, BTarget>> out_binds;
};

/// One `wait` statement: the signal slots its condition is sensitive to
/// (waiter registration) and the condition (blocked diagnostics).
struct BWaitSite {
  std::vector<uint32_t> signals;
  const Expr* cond = nullptr;
};

/// One postfix op of a fused WaitSigExpr condition: a compare leaf pushes
/// `signals[slot] OP imm` (always 0/1); a combiner pops two values through
/// And/Or. Compare results are 0/1 so bitwise and logical And/Or agree, and
/// the IR has no short-circuit, so eager evaluation is exact.
struct BWaitOp {
  enum class Kind : uint8_t { Cmp, Comb };
  Kind kind = Kind::Cmp;
  uint8_t op = 0;     // Cmp: Lt/Le/Gt/Ge/Eq/Ne; Comb: And/Or/LogicalAnd/Or
  uint32_t slot = 0;  // Cmp only: signal slot
  uint64_t imm = 0;   // Cmp only: literal rhs
};

/// Behavior-tree node; ids are the same dense pre-order indices the lowered
/// Program assigns, so completion counts and observer attributions agree.
struct BBehavior {
  static constexpr uint32_t kComplete = UINT32_MAX;

  const Behavior* src = nullptr;
  uint32_t id = 0;
  BehaviorKind kind = BehaviorKind::Leaf;
  uint32_t body = 0;                  // Leaf: entry pc
  std::vector<uint32_t> children;     // child behavior ids
  struct BTrans {
    bool has_guard = false;
    uint32_t guard = 0;  // entry pc of a GuardEnd-terminated unit
    uint32_t next = kComplete;
  };
  std::vector<std::vector<BTrans>> child_trans;  // Sequential: arcs per child
};

class BytecodeProgram {
 public:
  /// Flattens a lowered Program (Program::compile). The result keeps no
  /// pointer into `prog`, only `src` back-pointers into the spec, so the
  /// Program may be dropped afterwards; SimPlan (sim/plan.h) compiles both
  /// compiled tiers from one lowering this way.
  static std::shared_ptr<const BytecodeProgram> compile(const Program& prog);

  [[nodiscard]] const std::vector<BInstr>& code() const { return code_; }
  [[nodiscard]] const std::vector<BProc>& procs() const { return procs_; }
  [[nodiscard]] const std::vector<BCallSite>& call_sites() const {
    return call_sites_;
  }
  [[nodiscard]] const std::vector<BWaitSite>& wait_sites() const {
    return wait_sites_;
  }
  [[nodiscard]] const std::vector<BWaitOp>& wait_ops() const {
    return wait_ops_;
  }
  [[nodiscard]] const BBehavior* root() const { return &behaviors_[0]; }
  [[nodiscard]] const std::vector<BBehavior>& behaviors() const {
    return behaviors_;
  }
  [[nodiscard]] uint32_t behavior_count() const {
    return static_cast<uint32_t>(behaviors_.size());
  }
  [[nodiscard]] const std::string& behavior_name(uint32_t id) const {
    return behaviors_[id].src->name;
  }
  /// Registers the interpreter must provide: the deepest expression's
  /// postfix evaluation depth (at least 1, at most 65535).
  [[nodiscard]] uint32_t reg_count() const { return reg_count_; }
  /// Largest procedure activation record (sizes the in-arg staging buffer).
  [[nodiscard]] uint32_t max_proc_locals() const { return max_proc_locals_; }

 private:
  friend class BytecodeCompiler;
  BytecodeProgram() = default;

  std::vector<BInstr> code_;
  std::vector<BProc> procs_;
  std::vector<BCallSite> call_sites_;
  std::vector<BWaitSite> wait_sites_;
  std::vector<BWaitOp> wait_ops_;     // WaitSigExpr postfix pool
  std::vector<BBehavior> behaviors_;  // indexed by id, pre-order
  uint32_t reg_count_ = 1;
  uint32_t max_proc_locals_ = 0;
};

}  // namespace specsyn
