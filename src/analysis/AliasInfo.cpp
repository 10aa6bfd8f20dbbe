//===- analysis/AliasInfo.cpp - May-alias & address-taken facts -----------===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/AliasInfo.h"

#include <algorithm>

using namespace sldb;

namespace {

bool addRoot(PointsToSet &D, VarId R) {
  if (D.Unknown || D.contains(R))
    return false;
  D.Roots.insert(std::upper_bound(D.Roots.begin(), D.Roots.end(), R), R);
  return true;
}

bool setUnknown(PointsToSet &D) {
  if (D.Unknown)
    return false;
  D.Unknown = true;
  D.Roots.clear();
  return true;
}

bool unionInto(PointsToSet &D, const PointsToSet &S) {
  if (S.Unknown)
    return setUnknown(D);
  bool Changed = false;
  for (VarId R : S.Roots)
    Changed |= addRoot(D, R);
  return Changed;
}

/// The answer for a temp that existed at construction but never holds a
/// pointer: it addresses nothing.
const PointsToSet NoRoots;

} // namespace

AliasInfo::AliasInfo(const IRFunction &F, const ProgramInfo &Info)
    : Info(Info), NumTemps(F.NextTemp) {
  // Give every value that appears with pointer type a set.
  auto Track = [&](const Value &V) -> PointsToSet * {
    if (!V.isVar() && !V.isTemp())
      return nullptr;
    std::vector<unsigned> &Slots = V.isVar() ? VarSlot : TempSlot;
    if (Slots.empty())
      Slots.assign(V.isVar() ? Info.Vars.size() : NumTemps, ~0u);
    unsigned &S = Slots[V.Id];
    if (S == ~0u) {
      S = static_cast<unsigned>(Sets.size());
      Sets.emplace_back();
    }
    return &Sets[S];
  };

  // Pointer-typed parameters address caller storage the function cannot
  // name; addresses of this function's own locals can reach a parameter
  // only after escaping through a route tracked below, so Unknown stays
  // conservative (see the recursion note in the header).
  for (VarId P : F.Params)
    if (Info.var(P).Ty.isPtr())
      Track(Value::var(P, IRType::Ptr))->Unknown = true;

  // One walk collects the AddrOf universe, the pointer-typed values, the
  // pointer-producing instructions the fixpoint reads and the sites the
  // escape scan reads.
  std::vector<const Instr *> PtrDefs, EscapeSites;
  for (const auto &B : F.Blocks)
    for (const Instr &I : B->Insts) {
      if (I.Op == Opcode::AddrOf && !I.Ops.empty() && I.Ops[0].isVar()) {
        if (AddrTaken.empty())
          AddrTaken.assign(Info.Vars.size(), 0);
        AddrTaken[I.Ops[0].Id] = 1;
      }
      if (I.Dest.Ty == IRType::Ptr && Track(I.Dest))
        PtrDefs.push_back(&I);
      for (const Value &Op : I.Ops)
        if (Op.Ty == IRType::Ptr)
          Track(Op);
      if (I.Op == Opcode::Call || I.Op == Opcode::Store ||
          I.Op == Opcode::Ret || (I.Dest.isVar() && I.Dest.Ty == IRType::Ptr))
        EscapeSites.push_back(&I);
    }
  // Without a pointer-typed value nothing has roots and nothing escapes.
  if (Sets.empty())
    return;

  // Flow-insensitive fixpoint over the pointer-producing instructions.
  // The lattice is union-only (roots never leave a set), so the loop
  // terminates; sets are bounded by the AddrOf universe.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const Instr *IP : PtrDefs) {
      const Instr &I = *IP;
      PointsToSet &D = Sets[I.Dest.isVar() ? VarSlot[I.Dest.Id]
                                           : TempSlot[I.Dest.Id]];
      switch (I.Op) {
      case Opcode::AddrOf:
        if (!I.Ops.empty() && I.Ops[0].isVar())
          Changed |= addRoot(D, I.Ops[0].Id);
        else
          Changed |= setUnknown(D);
        break;
      case Opcode::Copy:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Phi:
        // Pointer arithmetic stays within the pointed-to object in
        // defined MiniC programs (no casts, no int->ptr round trips),
        // so only the pointer-typed operands contribute roots.
        for (const Value &Op : I.Ops) {
          if (Op.Ty != IRType::Ptr)
            continue;
          if (const PointsToSet *S = pointsTo(Op))
            Changed |= unionInto(D, *S);
          else
            Changed |= setUnknown(D);
        }
        break;
      default:
        // Loads of stored pointers, call results, anything else that
        // manufactures a pointer: untracked.
        Changed |= setUnknown(D);
        break;
      }
    }
  }

  // Escape scan: an address is visible to foreign code once it is
  // passed as a call argument, stored into memory, returned, or left in
  // a global pointer variable.
  auto EscapeValue = [&](const Value &V) {
    if (V.Ty != IRType::Ptr)
      return;
    if (const PointsToSet *S = pointsTo(V))
      escapeSet(*S);
  };
  for (const Instr *IP : EscapeSites) {
    const Instr &I = *IP;
    switch (I.Op) {
    case Opcode::Call:
      for (const Value &A : I.Ops)
        EscapeValue(A);
      break;
    case Opcode::Store:
      if (I.Ops.size() == 2)
        EscapeValue(I.Ops[1]);
      break;
    case Opcode::Ret:
      if (!I.Ops.empty())
        EscapeValue(I.Ops[0]);
      break;
    default:
      break;
    }
    if (I.Dest.isVar() && I.Dest.Ty == IRType::Ptr &&
        Info.var(I.Dest.Id).Storage == StorageKind::Global)
      escapeSet(Sets[VarSlot[I.Dest.Id]]);
  }
}

void AliasInfo::escapeSet(const PointsToSet &PT) {
  if (PT.Unknown) {
    // Unknown values cannot hold addresses that did not already escape,
    // but proving that here is not worth the risk: widen to the whole
    // AddrOf universe.
    for (VarId V = 0; V < AddrTaken.size(); ++V)
      if (AddrTaken[V])
        setEscaped(V);
    return;
  }
  for (VarId R : PT.Roots)
    setEscaped(R);
}

void AliasInfo::setEscaped(VarId V) {
  if (Escaped.empty())
    Escaped.assign(Info.Vars.size(), 0);
  Escaped[V] = 1;
}

const PointsToSet *AliasInfo::pointsTo(const Value &Ptr) const {
  if (Ptr.isTemp()) {
    if (Ptr.Id >= NumTemps)
      return nullptr;
    if (TempSlot.empty() || TempSlot[Ptr.Id] == ~0u)
      return &NoRoots;
    return &Sets[TempSlot[Ptr.Id]];
  }
  if (Ptr.isVar() && Ptr.Id < VarSlot.size() && VarSlot[Ptr.Id] != ~0u)
    return &Sets[VarSlot[Ptr.Id]];
  return nullptr;
}

bool AliasInfo::typeMatches(IRType ElemTy, const VarInfo &V) const {
  switch (V.Ty.Kind) {
  case TypeKind::Int:
    return ElemTy == IRType::Int;
  case TypeKind::Double:
    return ElemTy == IRType::Double;
  case TypeKind::Ptr:
    return ElemTy == IRType::Ptr;
  default:
    return true;
  }
}

bool AliasInfo::mayClobber(const Instr &I, VarId V) const {
  const VarInfo &VI = Info.var(V);
  if (!VI.isScalar())
    return false;
  switch (I.Op) {
  case Opcode::Store: {
    // VarInfo::AddressTaken (set by Sema at every `&v` in the program)
    // is a sound superset of "some pointer may hold &v": addresses are
    // only born at AddrOf.
    if (!VI.AddressTaken)
      return false;
    const PointsToSet *PT = I.Ops.empty() ? nullptr : pointsTo(I.Ops[0]);
    if (!PT || PT->Unknown)
      return typeMatches(I.Ty, VI);
    return PT->contains(V);
  }
  case Opcode::Call:
    if (VI.Storage == StorageKind::Global)
      return true; // Callees assign globals directly.
    return VI.AddressTaken && escaped(V);
  default:
    return false;
  }
}

bool AliasInfo::mayRead(const Instr &I, VarId V) const {
  const VarInfo &VI = Info.var(V);
  if (!VI.isScalar())
    return false;
  switch (I.Op) {
  case Opcode::Load: {
    if (!VI.AddressTaken)
      return false;
    const PointsToSet *PT = I.Ops.empty() ? nullptr : pointsTo(I.Ops[0]);
    if (!PT || PT->Unknown)
      return typeMatches(I.Ty, VI);
    return PT->contains(V);
  }
  case Opcode::Call:
    if (VI.Storage == StorageKind::Global)
      return true;
    return VI.AddressTaken && escaped(V);
  case Opcode::Ret:
    return VI.Storage == StorageKind::Global;
  default:
    return false;
  }
}
