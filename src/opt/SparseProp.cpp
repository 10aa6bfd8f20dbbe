//===- opt/SparseProp.cpp - Sparse SSA copy/const propagation ---*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse propagation over the SSA tier's def-use chains: single-def
/// temps defined by a Copy of a constant or of another single-def temp
/// are substituted into their uses, pure all-constant computations fold
/// to constants, and definitions left without any reader are erased.
/// Everything is gated on dominance — a substitution only happens where
/// the source definition dominates the use (for a phi operand the use
/// point is the end of the incoming predecessor, not the phi's block) —
/// and on the full use count of SsaDefUse, which includes a DeadMarker's
/// recovery value and the function's strength-reduction records, so no
/// definition a *debugger* still reads is ever deleted.  Variable stores
/// and markers are never rewritten: the pass moves values between
/// temporaries only, which is what keeps every §3 annotation intact.
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "ir/IntArith.h"

#include <unordered_set>
#include <vector>

using namespace sldb;

namespace {

/// Bounds one run like the pipeline's propagation clusters.
constexpr unsigned MaxRounds = 4;

class SparseProp : public Pass {
public:
  const char *name() const override { return "sparse-prop"; }

  PassResult run(IRFunction &F, IRModule &M, AnalysisManager &AM) override {
    (void)M;
    bool ChangedAny = false;
    for (unsigned Round = 0; Round < MaxRounds; ++Round) {
      CFGContext &CFG = AM.getResult<CFGContext>(F);
      Dominators &Dom = AM.getResult<Dominators>(F);
      SsaDefUse &DU = AM.getResult<SsaDefUse>(F);
      bool Changed = false;

      // 1. Fold pure all-constant computations on single-def temps into
      // copies of the result (which feeds the substitution map below).
      for (unsigned B = 0; B < CFG.numBlocks(); ++B)
        for (Instr &I : CFG.block(B)->Insts) {
          if (!I.Dest.isTemp() || !DU.singleDef(I.Dest.Id))
            continue;
          std::int64_t Out;
          const bool Folded =
              isBinaryOp(I.Op)
                  ? I.Ops[0].isConstInt() && I.Ops[1].isConstInt() &&
                        intarith::fold(I.Op, I.Ops[0].IntVal,
                                       I.Ops[1].IntVal, Out)
                  : I.Ops.size() == 1 && I.Ops[0].isConstInt() &&
                        intarith::fold(I.Op, I.Ops[0].IntVal, Out);
          if (Folded) {
            I.Op = Opcode::Copy;
            I.Ops.clear();
            I.Ops.push_back(Value::constInt(Out));
            Changed = true;
          }
        }

      // 2. Substitution map: single-def temp t with `t = copy src`,
      // src a constant or another single-def temp.
      std::vector<bool> HasSub(F.NextTemp, false);
      std::vector<Value> SubVal(F.NextTemp);
      std::vector<InstrId> SubDef(F.NextTemp, InvalidInstr);
      for (unsigned B = 0; B < CFG.numBlocks(); ++B)
        for (auto It = CFG.block(B)->Insts.begin(),
                  E = CFG.block(B)->Insts.end();
             It != E; ++It) {
          const Instr &I = *It;
          if (I.Op != Opcode::Copy || !I.Dest.isTemp() ||
              !DU.singleDef(I.Dest.Id))
            continue;
          const Value &Src = I.Ops[0];
          if (Src.isConst() || (Src.isTemp() && DU.singleDef(Src.Id))) {
            HasSub[I.Dest.Id] = true;
            SubVal[I.Dest.Id] = Src;
            SubDef[I.Dest.Id] = It.id();
          }
        }

      // 3. Substitute into dominated uses; one level per round (chains
      // resolve across rounds, each hop dominance-checked).  Temps that
      // gained uses this round must not be erased against the stale
      // counts below.
      std::unordered_set<TempId> GainedUses;
      auto DefDominatesUse = [&](InstrId DefId, unsigned UseBlock,
                                 unsigned UseOrd, bool UseAtBlockEnd) {
        unsigned DB = DU.blockOfInstr(DefId);
        if (DB == ~0u || UseBlock == ~0u)
          return false;
        if (DB != UseBlock)
          return Dom.dominates(DB, UseBlock);
        return UseAtBlockEnd || DU.ordinalOf(DefId) < UseOrd;
      };
      auto TrySub = [&](Value &Op, unsigned UseBlock, unsigned UseOrd,
                        bool UseAtBlockEnd) {
        if (!Op.isTemp() || Op.Id >= HasSub.size() || !HasSub[Op.Id])
          return;
        if (!DefDominatesUse(SubDef[Op.Id], UseBlock, UseOrd, UseAtBlockEnd))
          return;
        const Value &Repl = SubVal[Op.Id];
        if (Repl.isTemp())
          GainedUses.insert(Repl.Id);
        Op = Repl;
        Changed = true;
      };
      for (unsigned B = 0; B < CFG.numBlocks(); ++B)
        for (auto It = CFG.block(B)->Insts.begin(),
                  E = CFG.block(B)->Insts.end();
             It != E; ++It) {
          Instr &I = *It;
          const unsigned Ord = DU.ordinalOf(It.id());
          if (I.Op == Opcode::Phi) {
            // A phi operand is read at the end of its incoming edge.
            for (std::size_t A = 0; A < I.Ops.size(); ++A) {
              unsigned PB = CFG.indexOf(I.PhiPreds[A]);
              TrySub(I.Ops[A], PB, 0, /*UseAtBlockEnd=*/true);
            }
            continue;
          }
          for (Value &Op : I.Ops)
            TrySub(Op, B, Ord, false);
          if (I.Op == Opcode::DeadMarker)
            TrySub(I.Recovery, B, Ord, false);
        }

      // 4. Erase side-effect-free temp definitions nobody reads — not
      // even a recovery value or SR record (numUses counts both).
      for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
        BasicBlock *BB = CFG.block(B);
        for (auto It = BB->Insts.begin(); It != BB->Insts.end();) {
          const Instr &I = *It;
          if (I.Dest.isTemp() && !I.hasSideEffects() && !I.isTerm() &&
              DU.numUses(I.Dest.Id) == 0 && !GainedUses.count(I.Dest.Id)) {
            It = BB->Insts.erase(It);
            Changed = true;
            continue;
          }
          ++It;
        }
      }

      if (!Changed)
        break;
      ChangedAny = true;
      AM.invalidate(F, PreservedAnalyses::cfgShape());
    }
    if (!ChangedAny)
      return PassResult::unchanged();
    return {PreservedAnalyses::cfgShape(), true};
  }
};

} // namespace

std::unique_ptr<Pass> sldb::createSparsePropPass() {
  return std::make_unique<SparseProp>();
}
