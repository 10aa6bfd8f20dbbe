//===- opt/Propagation.cpp - Constant and copy propagation -----*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global constant propagation and assignment (copy) propagation, both
/// built on reaching definitions.  These rewrites only change *operands*;
/// assignments stay in place, so no markers are needed.  Their effect on
/// debugging is indirect: propagation strips uses off assignments, making
/// them dead and thereby subject to dead-code elimination, whose
/// bookkeeping (markers with recovery values) reconstructs the chain the
/// paper describes in §2.5 / Figure 4.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

using namespace sldb;

namespace {

/// True if operand slot \p Idx of \p I may be rewritten (value position).
bool isRewritableOperand(const Instr &I, unsigned Idx) {
  if (I.Op == Opcode::AddrOf)
    return false; // Names a location, not a value.
  (void)Idx;
  return true;
}

class ConstantPropagation : public Pass {
public:
  const char *name() const override { return "constant-propagation"; }

  PassResult run(IRFunction &F, IRModule &M, AnalysisManager &AM) override {
    (void)M;
    CFGContext &CFG = AM.getResult<CFGContext>(F);
    ValueIndex &VI = AM.getResult<ValueIndex>(F);
    ReachingDefs &RD = AM.getResult<ReachingDefs>(F);
    bool Changed = false;

    for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
      BitVector Reach = RD.reachIn(B);
      BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
        Instr &I = *It;
        for (unsigned OpIdx = 0; OpIdx < I.Ops.size(); ++OpIdx) {
          Value &Op = I.Ops[OpIdx];
          if (!isRewritableOperand(I, OpIdx))
            continue;
          if (!Op.isVar() && !Op.isTemp())
            continue;
          Value C;
          if (constValueAt(RD, VI, Reach, Op, C)) {
            Op = C;
            Changed = true;
          }
        }
        RD.transfer(It.id(), I, Reach);
      }
    }
    // Operand rewrites leave the block graph alone but can shrink the
    // value universe, so only CFG-shape analyses survive.
    return {Changed ? PreservedAnalyses::cfgShape() : PreservedAnalyses::all(),
            Changed};
  }

private:
  /// Returns true (and the constant) if every definition of \p Op reaching
  /// here assigns the same known constant.
  bool constValueAt(const ReachingDefs &RD, const ValueIndex &VI,
                    const BitVector &Reach, const Value &Op, Value &Out) {
    unsigned Idx = VI.valueIndex(Op);
    if (Idx == ~0u)
      return false;
    // Walk the value's definition range filtered by Reach: this runs
    // once per var operand.
    bool HaveConst = false;
    for (unsigned D = RD.defsBegin(Idx), E = RD.defsEnd(Idx); D != E; ++D) {
      if (!Reach.test(D))
        continue;
      if (RD.isUnknownDef(D))
        return false;
      const Instr *DefI = RD.def(D).I;
      if (DefI->Op != Opcode::Copy || !DefI->Ops[0].isConst())
        return false;
      const Value &C = DefI->Ops[0];
      if (!HaveConst) {
        Out = C;
        HaveConst = true;
      } else if (Out != C) {
        return false;
      }
    }
    return HaveConst;
  }
};

/// Copy (assignment) propagation via *available copies*: a copy `D = S`
/// justifies rewriting a use of D into S only when every path from the
/// function entry to the use executes the copy with no later
/// redefinition (or clobber) of either D or S.  An earlier version
/// instead compared S's reaching-definition *sets* at the copy and at
/// the use, which the differential fuzzer proved unsound in loops: the
/// same definition can reach the copy from a previous iteration and
/// also re-execute between the copy and the use, leaving the sets equal
/// while the value changed (`v4 = v2; loop { v2 = v4*a + b; }` became a
/// compounding `v2 = v2*a + b`).
class CopyPropagation : public Pass {
public:
  const char *name() const override { return "assignment-propagation"; }

  PassResult run(IRFunction &F, IRModule &M, AnalysisManager &AM) override {
    (void)M;
    CFGContext &CFG = AM.getResult<CFGContext>(F);
    ValueIndex &VI = AM.getResult<ValueIndex>(F);
    AliasInfo &AI = AM.getResult<AliasInfo>(F);

    // Snapshot the copy instances up front: rewrites below may rewrite a
    // copy's own source operand, and the data-flow solution is only
    // valid for the sources it was computed with.
    struct CopyInfo {
      unsigned DestIdx, SrcIdx;
      Value Src;
    };
    std::vector<CopyInfo> Copies;
    std::vector<unsigned> CopyOfInstr(F.Pool.idBound(), ~0u);
    for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
      const BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
        const Instr &I = *It;
        if (I.Op != Opcode::Copy ||
            (!I.Ops[0].isVar() && !I.Ops[0].isTemp()))
          continue;
        unsigned DI = VI.valueIndex(I.Dest);
        unsigned SI = VI.valueIndex(I.Ops[0]);
        if (DI == ~0u || SI == ~0u || DI == SI)
          continue;
        CopyOfInstr[It.id()] = static_cast<unsigned>(Copies.size());
        Copies.push_back({DI, SI, I.Ops[0]});
      }
    }
    if (Copies.empty())
      return PassResult::unchanged();
    const unsigned U = static_cast<unsigned>(Copies.size());

    // Index the copies by the value whose definition kills them, so the
    // per-instruction kill scan touches only the affected copies instead
    // of all U of them, and by destination in ascending copy id, for the
    // first-available use rewrite below (same pick order as scanning all
    // copies).  A store or call kills the copies of the address-taken
    // and global variables it may clobber.
    std::vector<std::vector<unsigned>> KilledByDef(VI.size()),
        CopiesByDest(VI.size());
    for (unsigned C = 0; C < U; ++C) {
      KilledByDef[Copies[C].DestIdx].push_back(C);
      KilledByDef[Copies[C].SrcIdx].push_back(C);
      CopiesByDest[Copies[C].DestIdx].push_back(C);
    }
    auto ForEachKilled = [&](const Instr &I, auto &&Fn) {
      unsigned DefIdx = VI.valueIndex(I.Dest);
      if (DefIdx != ~0u)
        for (unsigned C : KilledByDef[DefIdx])
          Fn(C);
      if (I.Op == Opcode::Store || I.Op == Opcode::Call)
        for (VarId V : VI.memoryVars()) {
          const std::vector<unsigned> &Killed = KilledByDef[VI.varIndex(V)];
          if (!Killed.empty() && AI.mayClobber(I, V))
            for (unsigned C : Killed)
              Fn(C);
        }
    };
    auto CopyOf = [&](InstrId Id) {
      return Id < CopyOfInstr.size() ? CopyOfInstr[Id] : ~0u;
    };

    DataflowProblem P;
    P.Dir = FlowDir::Forward;
    P.Meet = FlowMeet::Intersect;
    P.init(CFG, U);
    for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
      BitVector &Gen = P.Gen[B], &Kill = P.Kill[B];
      const BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
        ForEachKilled(*It, [&](unsigned C) {
          Gen.reset(C);
          Kill.set(C);
        });
        unsigned C = CopyOf(It.id());
        if (C != ~0u) {
          Gen.set(C);
          Kill.reset(C);
        }
      }
    }
    DataflowResult R = solveDataflow(CFG, P);

    bool Changed = false;
    for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
      BitVector Avail = R.In[B];
      BasicBlock *BB = CFG.block(B);
      for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
        Instr &I = *It;
        for (unsigned OpIdx = 0; OpIdx < I.Ops.size(); ++OpIdx) {
          Value &Op = I.Ops[OpIdx];
          if (!isRewritableOperand(I, OpIdx))
            continue;
          if (!Op.isVar() && !Op.isTemp())
            continue;
          unsigned Idx = VI.valueIndex(Op);
          if (Idx == ~0u)
            continue;
          for (unsigned C : CopiesByDest[Idx]) {
            if (!Avail.test(C))
              continue;
            Value Src = Copies[C].Src;
            Src.Ty = Op.Ty; // Keep the use-site type.
            Op = Src;
            Changed = true;
            break;
          }
        }
        ForEachKilled(I, [&](unsigned C) { Avail.reset(C); });
        unsigned C = CopyOf(It.id());
        if (C != ~0u)
          Avail.set(C); // Gen after kill: the copy redefines its dest.
      }
    }
    return {Changed ? PreservedAnalyses::cfgShape() : PreservedAnalyses::all(),
            Changed};
  }
};

} // namespace

std::unique_ptr<Pass> sldb::createConstantPropagationPass() {
  return std::make_unique<ConstantPropagation>();
}

std::unique_ptr<Pass> sldb::createCopyPropagationPass() {
  return std::make_unique<CopyPropagation>();
}
