//===- opt/DeadCodeElimination.cpp - Dead assignment elimination -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dead assignment elimination with the paper's §3 bookkeeping:
///
///  * deleting a *source-level* assignment to V replaces it with a
///    DeadMarker(V, stmt) pseudo-instruction — the gen site of the
///    debugger's dead-reach analysis (paper §2.4);
///  * if the deleted assignment's right-hand side survives as a constant,
///    variable or temporary, it is attached to the marker as a *recovery*
///    value: the debugger can reconstruct V's expected value from it
///    (paper §2.5, Figure 4);
///  * deleting a compiler-inserted hoisted/sunk copy leaves no marker (the
///    source assignment it duplicates is tracked elsewhere);
///  * dead compiler temporaries vanish silently (invisible to the user).
///
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

using namespace sldb;

/// See Pass.h.  The unsoundness this repairs was found by the
/// differential fuzzer: `v1 = -7; v1 = v1; v1 = 6;` turns the self-copy
/// into an avail marker (PRE), then DCE eliminates the initializer that
/// provided the marker's value — leaving a certificate for a
/// never-written location.
void sldb::demoteUnsoundAvailMarkers(CFGContext &CFG, unsigned Block,
                                     InstrList::iterator Start,
                                     VarId V) {
  auto Scan = [&](BasicBlock *BB, InstrList::iterator It) {
    for (; It != BB->Insts.end(); ++It) {
      if (It->Op == Opcode::AvailMarker && It->MarkVar == V) {
        It->Op = Opcode::DeadMarker;
        It->HoistKey = InvalidHoistKey;
        It->Recovery = Value();
        It->RecoveryScale = 1;
        It->RecoveryIsIV = false;
      } else if (!It->isMark() && It->destVar() == V) {
        return true; // a real assignment to V restores the certificate
      }
    }
    return false;
  };

  std::vector<bool> Seen(CFG.numBlocks(), false);
  std::vector<unsigned> Work;
  if (!Scan(CFG.block(Block), Start))
    for (unsigned S : CFG.succs(Block))
      if (!Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
  while (!Work.empty()) {
    unsigned B = Work.back();
    Work.pop_back();
    BasicBlock *BB = CFG.block(B);
    if (!Scan(BB, BB->Insts.begin()))
      for (unsigned S : CFG.succs(B))
        if (!Seen[S]) {
          Seen[S] = true;
          Work.push_back(S);
        }
  }
}

namespace {

/// Eliminating a dead store can also take out the def of a temporary an
/// earlier round recorded as some marker's recovery value — liveness
/// deliberately does not treat marker recoveries as uses, so the debug
/// bookkeeping never constrains the optimizer (the paper's non-invasive
/// rule).  A recovery naming an undefined temporary would lower to a
/// read of a register nothing writes; drop it so the marker degrades to
/// plain "dead, value unknown" — conservative, never wrong.
///
/// A temporary can have several defs (global CSE reuses one temp for
/// every occurrence of an expression), so deleting *one* of them is
/// enough to make the recovery lie: the marker would then read the value
/// of a surviving def on paths where the deleted one was the reaching
/// def.  \p Erased marks every temporary that lost a def in this run.
void clearDanglingRecoveries(IRFunction &F, const std::vector<bool> &Erased) {
  std::vector<bool> Defined(F.NextTemp, false);
  for (const BasicBlock *BB : F.Blocks)
    for (const Instr &I : BB->Insts)
      if (I.Dest.isTemp() && I.Dest.Id < F.NextTemp)
        Defined[I.Dest.Id] = true;
  for (BasicBlock *BB : F.Blocks)
    for (Instr &I : BB->Insts)
      if (I.Op == Opcode::DeadMarker && I.Recovery.isTemp() &&
          (I.Recovery.Id >= F.NextTemp || !Defined[I.Recovery.Id] ||
           Erased[I.Recovery.Id])) {
        I.Recovery = Value();
        I.RecoveryScale = 1;
        I.RecoveryIsIV = false;
      }
}

class DeadCodeElimination : public Pass {
public:
  const char *name() const override { return "dead-assignment-elimination"; }

  PassResult run(IRFunction &F, IRModule &M, AnalysisManager &AM) override {
    bool Any = false;
    std::vector<bool> Erased(F.NextTemp, false);
    // Deleting one assignment can kill the uses feeding another; iterate
    // to a fixed point.  Each round erases instructions in place (never
    // terminators), so the block graph — and with it the CFG-shape
    // caches — survives; only the instruction-level results go stale.
    while (runOnce(F, M, AM, Erased)) {
      Any = true;
      AM.invalidate(F, PreservedAnalyses::cfgShape());
    }
    if (Any)
      clearDanglingRecoveries(F, Erased);
    return {Any ? PreservedAnalyses::cfgShape() : PreservedAnalyses::all(),
            Any};
  }

private:
  bool runOnce(IRFunction &F, IRModule &M, AnalysisManager &AM,
               std::vector<bool> &Erased) {
    (void)M;
    CFGContext &CFG = AM.getResult<CFGContext>(F);
    ValueIndex &VI = AM.getResult<ValueIndex>(F);
    Liveness &LV = AM.getResult<Liveness>(F);
    bool Changed = false;

    for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
      BasicBlock *BB = CFG.block(B);
      BitVector Live = LV.liveOut(B);
      // Backward walk so `Live` is the set after each instruction.
      for (auto It = BB->Insts.end(); It != BB->Insts.begin();) {
        --It;
        Instr &I = *It;
        bool Dead = false;
        unsigned DestIdx = VI.valueIndex(I.Dest);
        if (DestIdx != ~0u && !I.hasSideEffects() && !Live.test(DestIdx))
          Dead = true;

        if (!Dead) {
          LV.transfer(I, Live);
          continue;
        }

        Changed = true;
        VarId ElimVar = I.destVar();
        if (I.Dest.isVar() && !I.IsHoisted && !I.IsSunk) {
          // A real source assignment dies: leave a dead marker with a
          // recovery value when the RHS is still observable.
          Instr Marker;
          Marker.Op = Opcode::DeadMarker;
          Marker.MarkVar = I.Dest.Id;
          Marker.MarkStmt = I.Stmt;
          Marker.Stmt = I.Stmt;
          if (I.Op == Opcode::Copy &&
              (I.Ops[0].isConst() || I.Ops[0].isTemp() || I.Ops[0].isVar())) {
            Marker.Recovery = I.Ops[0];
          } else {
            // Strength-reduced induction variable: recover the expected
            // value from the SR temporary (paper §2.5).
            for (const IRFunction::SRRecord &SR : F.SRRecords)
              if (SR.V == I.Dest.Id) {
                Marker.Recovery = SR.Temp;
                Marker.RecoveryScale = SR.Scale;
                Marker.RecoveryIsIV = true;
                break;
              }
          }
          I = std::move(Marker);
          // The marker is not a def; liveness transfer is a no-op for it.
          if (ElimVar != InvalidVar)
            demoteUnsoundAvailMarkers(CFG, B, std::next(It), ElimVar);
        } else {
          // Temps and compiler-inserted copies vanish without a trace.
          if (I.Dest.isTemp() && I.Dest.Id < F.NextTemp)
            Erased[I.Dest.Id] = true;
          It = BB->Insts.erase(It);
          if (ElimVar != InvalidVar)
            demoteUnsoundAvailMarkers(CFG, B, It, ElimVar);
        }
      }
    }
    return Changed;
  }
};

} // namespace

std::unique_ptr<Pass> sldb::createDeadCodeEliminationPass() {
  return std::make_unique<DeadCodeElimination>();
}
