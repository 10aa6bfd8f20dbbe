//===- analysis/ReachingDefs.cpp ------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/ReachingDefs.h"

using namespace sldb;

ReachingDefs::ReachingDefs(const CFGContext &CFG, const ValueIndex &VI,
                           const ProgramInfo &, const AliasInfo &AI)
    : VI(VI), AI(AI) {
  const unsigned NV = VI.size(), NB = CFG.numBlocks();
  // Count each value's real definitions, then lay the ranges out: value
  // v's real definitions, then its unknown definition.
  DefStart.assign(NV + 1, 0);
  for (unsigned B = 0; B < NB; ++B)
    for (const Instr &I : CFG.block(B)->Insts) {
      unsigned V = VI.valueIndex(I.Dest);
      if (V != ~0u)
        ++DefStart[V + 1];
    }
  for (unsigned V = 0; V < NV; ++V)
    DefStart[V + 1] += DefStart[V] + 1;
  const unsigned Universe = DefStart[NV];
  Defs.resize(Universe);
  DefOfInstr.assign(CFG.function().Pool.idBound(), ~0u);
  std::vector<unsigned> Next(DefStart.begin(), DefStart.end() - 1);

  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Meet = FlowMeet::Union;
  P.init(CFG, Universe);

  // At entry, every value has an unknown definition (parameters, globals,
  // zero-initialized locals).
  for (unsigned V = 0; V < NV; ++V) {
    Defs[unknownDef(V)] = {nullptr, V};
    P.Boundary.set(unknownDef(V));
  }

  // Number the real definitions in instruction order while building each
  // block's gen/kill in place.
  for (unsigned B = 0; B < NB; ++B) {
    BitVector &Gen = P.Gen[B], &Kill = P.Kill[B];
    const BasicBlock *BB = CFG.block(B);
    for (auto It = BB->Insts.begin(), E = BB->Insts.end(); It != E; ++It) {
      const Instr &I = *It;
      // Unknown def: kill nothing (weak update), gen the unknown bit.
      genClobbers(I, Gen);
      unsigned V = VI.valueIndex(I.Dest);
      if (V == ~0u)
        continue;
      unsigned D = Next[V]++;
      Defs[D] = {&I, V};
      DefOfInstr[It.id()] = D;
      Gen.reset(defsBegin(V), defsEnd(V));
      Kill.set(defsBegin(V), defsEnd(V));
      Gen.set(D);
    }
  }
  R = solveDataflow(CFG, P);
}

void ReachingDefs::genClobbers(const Instr &I, BitVector &Set) const {
  // Clobbers: calls/stores may redefine address-taken/global scalars.
  if (I.Op != Opcode::Store && I.Op != Opcode::Call)
    return;
  for (VarId V : VI.memoryVars())
    if (AI.mayClobber(I, V))
      Set.set(unknownDef(VI.varIndex(V)));
}

void ReachingDefs::transfer(InstrId Id, const Instr &I,
                            BitVector &Reach) const {
  genClobbers(I, Reach);
  unsigned D = defIndexOf(Id);
  if (D == ~0u)
    return;
  unsigned V = Defs[D].ValueIdx;
  Reach.reset(defsBegin(V), defsEnd(V));
  Reach.set(D);
}
