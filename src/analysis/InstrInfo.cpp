//===- analysis/InstrInfo.cpp ---------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/InstrInfo.h"

using namespace sldb;

std::vector<Value> sldb::instrUses(const Instr &I) {
  std::vector<Value> Uses;
  forEachUse(I, [&](const Value &V) { Uses.push_back(V); });
  return Uses;
}

bool sldb::instrMayClobberVar(const Instr &I, const VarInfo &V) {
  if (!V.isScalar())
    return false; // Arrays are not tracked as scalar data-flow values.
  switch (I.Op) {
  case Opcode::Store:
    // A store can write any address-taken scalar.
    return V.AddressTaken;
  case Opcode::Call:
    // A callee can write globals directly and address-taken locals
    // through escaped pointers.
    return V.AddressTaken || V.Storage == StorageKind::Global;
  default:
    return false;
  }
}

bool sldb::instrMayReadVar(const Instr &I, const VarInfo &V) {
  if (!V.isScalar())
    return false;
  switch (I.Op) {
  case Opcode::Load:
    return V.AddressTaken;
  case Opcode::Call:
    return V.AddressTaken || V.Storage == StorageKind::Global;
  case Opcode::Ret:
    // Values of globals must survive to the caller: treat returns as uses
    // of every global so assignments to them are never "dead" at exits.
    return V.Storage == StorageKind::Global;
  default:
    return false;
  }
}

ValueIndex::ValueIndex(const IRFunction &F, const ProgramInfo &Info) {
  VarIdx.assign(Info.Vars.size(), ~0u);
  TempIdx.assign(F.NextTemp, ~0u);
  // One walk.  Variables take the low indices (isVarIndex() answers by
  // range) and are numbered as they appear; temps are numbered in order
  // of appearance from 0 and shifted past the variables afterwards.
  unsigned NumTemps = 0;
  auto AddVar = [&](VarId Id) {
    if (Id == InvalidVar || VarIdx[Id] != ~0u)
      return;
    const VarInfo &V = Info.var(Id);
    if (!V.isScalar())
      return;
    VarIdx[Id] = static_cast<unsigned>(Vars.size());
    Vars.push_back(Id);
    if (!V.isPromotable()) // Address-taken or global.
      MemVars.push_back(Id);
  };
  auto AddTemp = [&](TempId Id) {
    if (TempIdx[Id] == ~0u)
      TempIdx[Id] = NumTemps++;
  };
  for (VarId P : F.Params)
    AddVar(P);
  for (const auto &B : F.Blocks)
    for (const Instr &I : B->Insts) {
      if (I.Dest.isVar())
        AddVar(I.Dest.Id);
      else if (I.Dest.isTemp())
        AddTemp(I.Dest.Id);
      for (const Value &V : I.Ops)
        if (V.isVar())
          AddVar(V.Id);
        else if (V.isTemp())
          AddTemp(V.Id);
      if (I.MarkVar != InvalidVar)
        AddVar(I.MarkVar);
      if (I.Recovery.isVar())
        AddVar(I.Recovery.Id);
      else if (I.Recovery.isTemp())
        AddTemp(I.Recovery.Id);
    }
  // Globals referenced nowhere still matter for scope queries; callers
  // handle those separately.
  const unsigned NumVars = static_cast<unsigned>(Vars.size());
  for (unsigned &Idx : TempIdx)
    if (Idx != ~0u)
      Idx += NumVars;
  Count = NumVars + NumTemps;
}
