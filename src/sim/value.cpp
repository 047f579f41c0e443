#include "sim/value.h"

namespace specsyn {

uint64_t apply_unop(UnOp op, uint64_t a) {
  switch (op) {
    case UnOp::LogicalNot: return a == 0 ? 1 : 0;
    case UnOp::BitNot: return ~a;
    case UnOp::Neg: return ~a + 1;  // two's complement, wraps
  }
  return 0;
}

uint64_t apply_binop(BinOp op, uint64_t a, uint64_t b) {
  switch (op) {
    case BinOp::Add: return a + b;
    case BinOp::Sub: return a - b;
    case BinOp::Mul: return a * b;
    case BinOp::Div: return b == 0 ? 0 : a / b;
    case BinOp::Mod: return b == 0 ? 0 : a % b;
    case BinOp::And: return a & b;
    case BinOp::Or: return a | b;
    case BinOp::Xor: return a ^ b;
    case BinOp::Shl: return a << (b & 63);
    case BinOp::Shr: return a >> (b & 63);
    case BinOp::Lt: return a < b ? 1 : 0;
    case BinOp::Le: return a <= b ? 1 : 0;
    case BinOp::Gt: return a > b ? 1 : 0;
    case BinOp::Ge: return a >= b ? 1 : 0;
    case BinOp::Eq: return a == b ? 1 : 0;
    case BinOp::Ne: return a != b ? 1 : 0;
    case BinOp::LogicalAnd: return (a != 0 && b != 0) ? 1 : 0;
    case BinOp::LogicalOr: return (a != 0 || b != 0) ? 1 : 0;
  }
  return 0;
}

}  // namespace specsyn
