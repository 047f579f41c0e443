// Value semantics of SpecLang expression evaluation.
//
// All values are uint64_t; the declared Type of a variable/signal wraps
// values on write. Operator semantics (documented, deterministic, no UB):
//   - arithmetic wraps modulo 2^64 during evaluation (writes re-wrap),
//   - division/modulo by zero yield 0,
//   - shift amounts are taken modulo 64,
//   - comparisons are unsigned and yield 0/1,
//   - logical &&/|| evaluate both operands (no short circuit; SpecLang
//     expressions are side-effect free) and yield 0/1.
#pragma once

#include <cstdint>

#include "spec/expr.h"

namespace specsyn {

[[nodiscard]] uint64_t apply_unop(UnOp op, uint64_t a);
[[nodiscard]] uint64_t apply_binop(BinOp op, uint64_t a, uint64_t b);

}  // namespace specsyn
