//===- analysis/SsaDefUse.cpp ---------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/SsaDefUse.h"

using namespace sldb;

SsaDefUse::SsaDefUse(const CFGContext &CFG) {
  const IRFunction &F = CFG.function();
  Defs.resize(F.NextTemp);
  Uses.assign(F.NextTemp, 0);
  InstrBlock.assign(F.Pool.idBound(), ~0u);
  InstrOrdinal.assign(F.Pool.idBound(), 0);

  auto NoteUse = [&](const Value &V) {
    if (V.isTemp() && V.Id < Uses.size())
      ++Uses[V.Id];
  };

  for (unsigned BI = 0, N = CFG.numBlocks(); BI < N; ++BI) {
    const BasicBlock *B = CFG.block(BI);
    unsigned Ord = 0;
    for (auto It = B->Insts.begin(), E = B->Insts.end(); It != E; ++It) {
      const Instr &I = *It;
      const InstrId Id = It.id();
      InstrBlock[Id] = BI;
      InstrOrdinal[Id] = Ord++;
      if (I.Dest.isTemp() && I.Dest.Id < Defs.size()) {
        DefInfo &D = Defs[I.Dest.Id];
        ++D.NumDefs;
        D.Def = Id;
        D.Block = BI;
      }
      // AddrOf's operand is always a variable, so visiting every operand
      // uniformly is safe; marker operand lists are empty, their temp
      // reference is the recovery value below.
      for (const Value &V : I.Ops)
        NoteUse(V);
      if (I.Op == Opcode::DeadMarker)
        NoteUse(I.Recovery);
    }
  }
  for (const IRFunction::SRRecord &R : F.SRRecords)
    NoteUse(R.Temp);
}
