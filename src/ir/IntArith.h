//===- ir/IntArith.h - MiniC integer arithmetic -----------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniC `int` is 64-bit two's complement and wraps on overflow.  The IR
/// interpreter, constant folding and the VM add, subtract, multiply and
/// negate through these helpers, so they agree on every result and no
/// program drives the host into signed-overflow undefined behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_IR_INTARITH_H
#define SLDB_IR_INTARITH_H

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

} // namespace sldb::intarith

#endif // SLDB_IR_INTARITH_H
