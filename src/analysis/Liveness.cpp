//===- analysis/Liveness.cpp ----------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

using namespace sldb;

void Liveness::transfer(const Instr &I, BitVector &Live) const {
  // Backward: kill the def, then add uses.
  unsigned DestIdx = VI.valueIndex(I.Dest);
  if (DestIdx != ~0u)
    Live.reset(DestIdx);
  forEachUse(I, [&](const Value &U) {
    unsigned Idx = VI.valueIndex(U);
    if (Idx != ~0u)
      Live.set(Idx);
  });
  // May-uses (loads/calls reading address-taken or global scalars).
  if (I.Op == Opcode::Load || I.Op == Opcode::Call || I.Op == Opcode::Ret) {
    for (VarId V : VI.memoryVars())
      if (AI.mayRead(I, V))
        Live.set(VI.varIndex(V));
  }
  // AddrOf pins the variable: once its address is taken, any later memory
  // operation may read it, which the may-use rule above covers.
}

Liveness::Liveness(const CFGContext &CFG, const ValueIndex &VI,
                   const ProgramInfo &Info, const AliasInfo &AI)
    : VI(VI), AI(AI) {
  DataflowProblem P;
  P.Dir = FlowDir::Backward;
  P.Meet = FlowMeet::Union;
  P.init(CFG, VI.size());

  // Globals are live at function exits (the caller may read them).
  for (VarId V : VI.memoryVars())
    if (Info.var(V).Storage == StorageKind::Global)
      P.Boundary.set(VI.varIndex(V));

  for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
    // Compute Gen (upward-exposed uses) and Kill (defs) by a backward
    // walk so that Out - Kill + Gen == In for the whole block.
    BitVector &Gen = P.Gen[B], &Kill = P.Kill[B];
    const BasicBlock *BB = CFG.block(B);
    for (auto It = BB->Insts.rbegin(); It != BB->Insts.rend(); ++It) {
      unsigned DestIdx = VI.valueIndex(It->Dest);
      if (DestIdx != ~0u)
        Kill.set(DestIdx);
      transfer(*It, Gen);
    }
  }
  R = solveDataflow(CFG, P);
}

