//===- opt/LocalSimplify.cpp - Folding and algebraic cleanup ---*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constant folding and algebraic simplification.  These rewrites never
/// move or eliminate assignments to source variables — the folded
/// instruction stays in place with its annotations — so they need no debug
/// bookkeeping (paper §2: "many scalar optimizations ... do not directly
/// affect assignments to source variables").
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "ir/IntArith.h"
#include "support/Casting.h"

using namespace sldb;

namespace {

bool foldDouble(Opcode Op, double A, double B, double &DOut,
                std::int64_t &IOut, bool &IsCmp) {
  IsCmp = false;
  switch (Op) {
  case Opcode::Add:
    DOut = A + B;
    return true;
  case Opcode::Sub:
    DOut = A - B;
    return true;
  case Opcode::Mul:
    DOut = A * B;
    return true;
  case Opcode::Div:
    DOut = B == 0 ? 0 : A / B;
    return true;
  case Opcode::CmpEQ:
    IOut = A == B;
    IsCmp = true;
    return true;
  case Opcode::CmpNE:
    IOut = A != B;
    IsCmp = true;
    return true;
  case Opcode::CmpLT:
    IOut = A < B;
    IsCmp = true;
    return true;
  case Opcode::CmpLE:
    IOut = A <= B;
    IsCmp = true;
    return true;
  case Opcode::CmpGT:
    IOut = A > B;
    IsCmp = true;
    return true;
  case Opcode::CmpGE:
    IOut = A >= B;
    IsCmp = true;
    return true;
  default:
    return false;
  }
}

/// Rewrites \p I into a Copy of \p V, preserving annotations.
void becomeCopy(Instr &I, Value V) {
  I.Op = Opcode::Copy;
  I.Ops = {V};
}

class LocalSimplify : public Pass {
public:
  const char *name() const override {
    return "constant-propagation-and-folding(local)";
  }

  PassResult run(IRFunction &F, IRModule &M, AnalysisManager &AM) override {
    (void)M;
    (void)AM; // Purely local; needs no analyses.
    bool Changed = false;
    for (auto &B : F.Blocks)
      for (Instr &I : B->Insts)
        Changed |= simplify(I);
    return {Changed ? PreservedAnalyses::cfgShape() : PreservedAnalyses::all(),
            Changed};
  }

private:
  bool simplify(Instr &I) {
    // Binary constant folding.
    if (isBinaryOp(I.Op) && I.Ops.size() == 2) {
      const Value &A = I.Ops[0], &B = I.Ops[1];
      if (A.isConstInt() && B.isConstInt()) {
        std::int64_t Out;
        if (intarith::fold(I.Op, A.IntVal, B.IntVal, Out)) {
          becomeCopy(I, Value::constInt(Out));
          return true;
        }
        return false;
      }
      if (A.isConstDouble() && B.isConstDouble()) {
        double DOut;
        std::int64_t IOut;
        bool IsCmp;
        if (foldDouble(I.Op, A.DblVal, B.DblVal, DOut, IOut, IsCmp)) {
          becomeCopy(I, IsCmp ? Value::constInt(IOut)
                              : Value::constDouble(DOut));
          return true;
        }
        return false;
      }
      return simplifyAlgebraic(I);
    }
    // Unary folding.
    std::int64_t Out;
    if (I.Ops.size() == 1 && I.Ops[0].isConstInt() &&
        intarith::fold(I.Op, I.Ops[0].IntVal, Out)) {
      becomeCopy(I, Value::constInt(Out));
      return true;
    }
    if (I.Op == Opcode::Neg && I.Ops[0].isConstDouble()) {
      becomeCopy(I, Value::constDouble(-I.Ops[0].DblVal));
      return true;
    }
    if (I.Op == Opcode::CastItoD && I.Ops[0].isConstInt()) {
      becomeCopy(I, Value::constDouble(static_cast<double>(I.Ops[0].IntVal)));
      return true;
    }
    if (I.Op == Opcode::CastDtoI && I.Ops[0].isConstDouble()) {
      becomeCopy(I,
                 Value::constInt(static_cast<std::int64_t>(I.Ops[0].DblVal)));
      return true;
    }
    return false;
  }

  /// Identity/annihilator rewrites on one-constant operands.
  bool simplifyAlgebraic(Instr &I) {
    Value &A = I.Ops[0];
    Value &B = I.Ops[1];
    bool IsInt = I.Ty == IRType::Int || I.Ty == IRType::Ptr;
    if (!IsInt)
      return false; // Double identities interact with NaN; leave alone.

    auto IsZero = [](const Value &V) {
      return V.isConstInt() && V.IntVal == 0;
    };
    auto IsOne = [](const Value &V) {
      return V.isConstInt() && V.IntVal == 1;
    };

    switch (I.Op) {
    case Opcode::Add:
      if (IsZero(B)) {
        becomeCopy(I, A);
        return true;
      }
      if (IsZero(A)) {
        becomeCopy(I, B);
        return true;
      }
      return false;
    case Opcode::Sub:
      if (IsZero(B)) {
        becomeCopy(I, A);
        return true;
      }
      return false;
    case Opcode::Mul:
      if (IsOne(B)) {
        becomeCopy(I, A);
        return true;
      }
      if (IsOne(A)) {
        becomeCopy(I, B);
        return true;
      }
      if ((IsZero(A) || IsZero(B)) && I.Ty == IRType::Int) {
        becomeCopy(I, Value::constInt(0));
        return true;
      }
      return false;
    case Opcode::Div:
      if (IsOne(B)) {
        becomeCopy(I, A);
        return true;
      }
      return false;
    case Opcode::Shl:
    case Opcode::Shr:
      if (IsZero(B)) {
        becomeCopy(I, A);
        return true;
      }
      return false;
    case Opcode::And:
      if (IsZero(A) || IsZero(B)) {
        becomeCopy(I, Value::constInt(0));
        return true;
      }
      return false;
    case Opcode::Or:
    case Opcode::Xor:
      if (IsZero(B)) {
        becomeCopy(I, A);
        return true;
      }
      if (IsZero(A)) {
        becomeCopy(I, B);
        return true;
      }
      return false;
    default:
      return false;
    }
  }
};

} // namespace

std::unique_ptr<Pass> sldb::createLocalSimplifyPass() {
  return std::make_unique<LocalSimplify>();
}
