//===- opt/InductionVariableOpt.cpp - SR, LFTR, IV elimination -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Induction-variable optimizations: operator strength reduction of
/// `j = i * k` (k a loop-invariant constant) into an additive temporary,
/// linear function test replacement of loop-exit comparisons on `i`, and
/// (indirectly, via dead-code elimination) induction-variable elimination.
///
/// Debug bookkeeping: a strength-reduction record `value(i) ==
/// value(s) / k` is registered with the function.  If the source-level IV
/// `i` later dies (all uses replaced) and DCE eliminates its update, the
/// dead marker carries the affine recovery so the debugger can
/// reconstruct i from the strength-reduced temporary (paper §2.5:
/// "A similar approach is used to recover the value of a source-level
/// induction variable that is replaced by a strength-reduced
/// expression").
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "ir/IntArith.h"

using namespace sldb;

namespace {

/// A recognized basic induction variable: one in-loop update
/// `IV = IV + Step` (Step constant, possibly negative via Sub).
struct BasicIV {
  Value IV;            ///< Var or temp.
  Instr *Update = nullptr;
  unsigned UpdateBlock = 0;
  std::int64_t Step = 0;
};

class InductionVariableOpt : public Pass {
public:
  const char *name() const override {
    return "strength-reduction-and-ivopt";
  }

  PassResult run(IRFunction &F, IRModule &M, AnalysisManager &AM) override {
    bool Any = false;
    bool Retry = true;
    while (Retry) {
      Retry = false;
      CFGContext &CFG = AM.getResult<CFGContext>(F);
      Dominators &Dom = AM.getResult<Dominators>(F);
      LoopInfo &LI = AM.getResult<LoopInfo>(F);
      for (const Loop &L : LI.loops()) {
        bool CFGChanged = false;
        BasicBlock *PH = getOrCreatePreheader(CFG, L, CFGChanged);
        if (CFGChanged) {
          AM.invalidateAll(F);
          Retry = true;
          break;
        }
        if (!PH)
          continue;
        if (runOnLoop(F, *M.Info, AM.getResult<AliasInfo>(F), CFG, Dom, L,
                      PH)) {
          Any = true;
          // Strength reduction only inserts/rewrites instructions:
          // the loop forest survives; re-scan it for further IVs.
          // (Previously this rebuilt CFG+dominators+loops per IV.)
          AM.invalidate(F, PreservedAnalyses::cfgShape());
          Retry = true;
          break;
        }
      }
    }
    return {Any ? PreservedAnalyses::cfgShape() : PreservedAnalyses::all(),
            Any};
  }

private:
  /// Finds basic IVs of \p L: values with exactly one def inside the
  /// loop, of the form `i = i + c` / `i = i - c`, whose block dominates
  /// every latch (executes exactly once per iteration).
  std::vector<BasicIV> findBasicIVs(const ProgramInfo &Info,
                                    const AliasInfo &AI,
                                    const CFGContext &CFG,
                                    const Dominators &Dom, const Loop &L) {
    std::vector<BasicIV> IVs;
    for (unsigned B : L.Blocks)
      for (Instr &I : CFG.block(B)->Insts) {
        if (I.Op != Opcode::Add && I.Op != Opcode::Sub)
          continue;
        if (I.Ty != IRType::Int)
          continue;
        if (I.Dest.isNone() || I.Ops[0] != I.Dest || !I.Ops[1].isConstInt())
          continue;
        if (I.Dest.isVar() && !Info.var(I.Dest.Id).isPromotable())
          continue;
        bool DominatesLatches = true;
        for (unsigned Latch : L.Latches)
          DominatesLatches &= Dom.dominates(B, Latch);
        if (!DominatesLatches)
          continue;
        // Must be the only def of the value inside the loop.
        unsigned Defs = 0;
        for (unsigned B2 : L.Blocks)
          for (const Instr &I2 : CFG.block(B2)->Insts) {
            if (I2.Dest == I.Dest)
              ++Defs;
            if (I.Dest.isVar() && AI.mayClobber(I2, I.Dest.Id))
              Defs += 2; // Clobbered: disqualify.
          }
        if (Defs != 1)
          continue;
        BasicIV IV;
        IV.IV = I.Dest;
        IV.Update = &I;
        IV.UpdateBlock = B;
        // MiniC integers wrap, so the step is negated modulo 2^64 too.
        IV.Step = I.Op == Opcode::Add ? I.Ops[1].IntVal
                                      : intarith::neg(I.Ops[1].IntVal);
        IVs.push_back(IV);
      }
    return IVs;
  }

  bool runOnLoop(IRFunction &F, const ProgramInfo &Info,
                 const AliasInfo &AI, const CFGContext &CFG,
                 const Dominators &Dom, const Loop &L, BasicBlock *PH) {
    std::vector<BasicIV> IVs = findBasicIVs(Info, AI, CFG, Dom, L);
    if (IVs.empty())
      return false;

    for (const BasicIV &IV : IVs) {
      // Find derived uses `j = IV * k` (k constant != 0) inside the loop.
      std::vector<Instr *> Derived;
      std::int64_t K = 0;
      for (unsigned B : L.Blocks)
        for (Instr &I : CFG.block(B)->Insts) {
          if (I.Op != Opcode::Mul || I.Ty != IRType::Int)
            continue;
          Value Other;
          if (I.Ops[0] == IV.IV && I.Ops[1].isConstInt())
            Other = I.Ops[1];
          else if (I.Ops[1] == IV.IV && I.Ops[0].isConstInt())
            Other = I.Ops[0];
          else
            continue;
          if (Other.IntVal == 0 || I.Dest == IV.IV)
            continue;
          if (K == 0)
            K = Other.IntVal;
          if (Other.IntVal != K)
            continue; // One factor per rewrite round.
          Derived.push_back(&I);
        }
      if (Derived.empty() || K == 0)
        continue;

      // Create the strength-reduced temporary s with s == IV * K.
      Value S = F.newTemp(IRType::Int);
      {
        Instr Init;
        Init.Op = Opcode::Mul;
        Init.Ty = IRType::Int;
        Init.Dest = S;
        Init.Ops = {IV.IV, Value::constInt(K)};
        auto Pos = PH->Insts.end();
        --Pos;
        PH->Insts.insert(Pos, std::move(Init));
      }
      {
        Instr Bump;
        Bump.Op = Opcode::Add;
        Bump.Ty = IRType::Int;
        Bump.Dest = S;
        // s == IV * K holds modulo 2^64 with a wrapping bump.
        Bump.Ops = {S, Value::constInt(intarith::mul(IV.Step, K))};
        Bump.Stmt = IV.Update->Stmt;
        BasicBlock *UB = CFG.block(IV.UpdateBlock);
        for (auto It = UB->Insts.begin(); It != UB->Insts.end(); ++It)
          if (&*It == IV.Update) {
            UB->Insts.insert(std::next(It), std::move(Bump));
            break;
          }
      }
      // Replace the derived computations.
      for (Instr *I : Derived) {
        I->Op = Opcode::Copy;
        I->Ops = {S};
      }

      // Linear function test replacement: rewrite in-loop exit tests
      // `t = cmp IV, n` (n a constant; K > 0 keeps the direction) to
      // compare the strength-reduced temp instead, freeing IV.  A test
      // whose bound times K does not fit in an int stays on IV: the
      // scaled bound would wrap and change the loop's exit.
      if (K > 0) {
        for (unsigned B : L.Blocks)
          for (Instr &I : CFG.block(B)->Insts) {
            if (!isCompareOp(I.Op))
              continue;
            std::int64_t NK;
            if (I.Ops[0] == IV.IV && I.Ops[1].isConstInt()) {
              if (!__builtin_mul_overflow(I.Ops[1].IntVal, K, &NK)) {
                I.Ops[0] = S;
                I.Ops[1] = Value::constInt(NK);
              }
            } else if (I.Ops[1] == IV.IV && I.Ops[0].isConstInt()) {
              if (!__builtin_mul_overflow(I.Ops[0].IntVal, K, &NK)) {
                I.Ops[1] = S;
                I.Ops[0] = Value::constInt(NK);
              }
            }
          }
      }

      // Register the recovery relation for the debugger: IV == S / K.
      if (IV.IV.isVar())
        F.SRRecords.push_back({IV.IV.Id, S, K});
      return true; // One IV per invocation; caller reiterates.
    }
    return false;
  }
};

} // namespace

std::unique_ptr<Pass> sldb::createInductionVariableOptPass() {
  return std::make_unique<InductionVariableOpt>();
}
