//===- ir/IntArith.h - MiniC integer arithmetic -----------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniC `int` is 64-bit two's complement and wraps on overflow; the one
/// quotient that overflows, INT64_MIN / -1, wraps to INT64_MIN, and its
/// remainder is 0.  The IR interpreter, constant folding and the VM do
/// arithmetic through these helpers, so they agree on every result and no
/// program drives the host into undefined behaviour or a divide fault.
/// Constant folding goes through fold(), one folder for every pass.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_IR_INTARITH_H
#define SLDB_IR_INTARITH_H

#include "ir/IR.h"

#include <cstdint>

namespace sldb::intarith {

inline std::int64_t add(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) +
                                   static_cast<std::uint64_t>(B));
}

inline std::int64_t sub(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) -
                                   static_cast<std::uint64_t>(B));
}

inline std::int64_t mul(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) *
                                   static_cast<std::uint64_t>(B));
}

inline std::int64_t neg(std::int64_t A) { return sub(0, A); }

/// Quotient truncated toward zero.  \p B must not be 0.
inline std::int64_t div(std::int64_t A, std::int64_t B) {
  return B == -1 ? neg(A) : A / B;
}

/// Remainder with the sign of \p A.  \p B must not be 0.
inline std::int64_t rem(std::int64_t A, std::int64_t B) {
  return B == -1 ? 0 : A % B;
}

/// Folds the integer operation \p Op over \p A and \p B into \p Out, as
/// the interpreter computes it; returns false if the fold is not possible
/// (division by zero stays as a runtime trap).
inline bool fold(Opcode Op, std::int64_t A, std::int64_t B,
                 std::int64_t &Out) {
  switch (Op) {
  case Opcode::Add:
    Out = add(A, B);
    return true;
  case Opcode::Sub:
    Out = sub(A, B);
    return true;
  case Opcode::Mul:
    Out = mul(A, B);
    return true;
  case Opcode::Div:
    if (B == 0)
      return false;
    Out = div(A, B);
    return true;
  case Opcode::Rem:
    if (B == 0)
      return false;
    Out = rem(A, B);
    return true;
  case Opcode::And:
    Out = A & B;
    return true;
  case Opcode::Or:
    Out = A | B;
    return true;
  case Opcode::Xor:
    Out = A ^ B;
    return true;
  case Opcode::Shl:
    Out = A << (B & 63);
    return true;
  case Opcode::Shr:
    Out = A >> (B & 63);
    return true;
  case Opcode::CmpEQ:
    Out = A == B;
    return true;
  case Opcode::CmpNE:
    Out = A != B;
    return true;
  case Opcode::CmpLT:
    Out = A < B;
    return true;
  case Opcode::CmpLE:
    Out = A <= B;
    return true;
  case Opcode::CmpGT:
    Out = A > B;
    return true;
  case Opcode::CmpGE:
    Out = A >= B;
    return true;
  default:
    return false;
  }
}

/// Folds the unary integer operation \p Op (negation, bitwise not) over
/// \p A into \p Out; returns false for any other operation.
inline bool fold(Opcode Op, std::int64_t A, std::int64_t &Out) {
  switch (Op) {
  case Opcode::Neg:
    Out = neg(A);
    return true;
  case Opcode::Not:
    Out = ~A;
    return true;
  default:
    return false;
  }
}

} // namespace sldb::intarith

#endif // SLDB_IR_INTARITH_H
