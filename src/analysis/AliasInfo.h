//===- analysis/AliasInfo.h - May-alias & address-taken facts ---*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conservative per-function may-alias analysis for MiniC's pointer
/// fragment: fixed-size arrays, single-level pointers, `&` on scalar
/// variables, and pointer arithmetic on array bases.  The analysis
/// refines the maximally-conservative free functions in InstrInfo.h
/// (which kill every address-taken scalar at every Store/Call) with two
/// facts the IR can prove:
///
///  - *Points-to roots.*  Every pointer-typed value is mapped, flow
///    insensitively, to the set of variables whose storage it may
///    address.  Addresses are only born at AddrOf instructions, survive
///    Copy/Phi and pointer arithmetic (which stays within the object in
///    defined MiniC programs: there are no casts and no pointer-to-
///    pointer round trips through integers), and become *unknown* when
///    loaded back out of memory, produced by a call, or received as a
///    parameter.  A Store through a pointer with a known root set kills
///    exactly the scalars in that set; a store through an unknown
///    pointer falls back to the syntactic address-taken rule, filtered
///    by the store's element type (MiniC has no pointer casts, so an
///    int store can never write a double's slot).
///
///  - *Escape.*  A call can only write an address-taken local if the
///    local's address actually reached foreign code: passed as a call
///    argument, stored into memory, returned, or assigned to a global
///    pointer.  Locals whose address only ever feeds direct loads and
///    stores inside the function are invisible to callees, so calls do
///    not kill their data-flow facts.  (An *unknown* pointer value can
///    only contain a local's address if that address already escaped
///    through one of the tracked routes first — addresses of locals are
///    only created inside their own function — so unknown values never
///    widen the escaped set.)
///
/// Soundness note for the recursion edge case: a known root set {v}
/// always names the *current* activation's v (the AddrOf executed in
/// this frame).  Addresses of other activations of the same function
/// arrive only through parameters or memory, both of which map to
/// *unknown* and therefore stay conservative.
///
/// Registered with AnalysisManager as AnalysisID::Alias (instruction-
/// level dependence: any instruction mutation invalidates it).
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_ANALYSIS_ALIASINFO_H
#define SLDB_ANALYSIS_ALIASINFO_H

#include "analysis/InstrInfo.h"
#include "frontend/Symbols.h"
#include "ir/IR.h"

#include <vector>

namespace sldb {

/// What a pointer-typed value may address.
struct PointsToSet {
  /// True when the value escapes tracking (loaded from memory, call
  /// result, incoming parameter): it may address any object whose
  /// address was ever taken.  Roots is meaningless then.
  bool Unknown = false;

  /// Root variables (locals, params, globals; scalars and arrays) whose
  /// storage the value may address.  Sorted, unique.
  std::vector<VarId> Roots;

  bool contains(VarId V) const {
    for (VarId R : Roots)
      if (R == V)
        return true;
    return false;
  }
};

class AliasInfo {
public:
  AliasInfo(const IRFunction &F, const ProgramInfo &Info);

  /// Whether an AddrOf of \p V appears anywhere in the function body
  /// (IR-level; unlike VarInfo::AddressTaken this ignores other
  /// functions, so it is exact for locals).
  bool addressTaken(VarId V) const {
    return V < AddrTaken.size() && AddrTaken[V];
  }

  /// Whether \p V's address may be reachable by callees or through
  /// memory: it was passed as a call argument, stored, returned, or
  /// assigned to a global pointer variable.
  bool escaped(VarId V) const { return V < Escaped.size() && Escaped[V]; }

  /// Points-to roots of pointer value \p Ptr, or nullptr for values the
  /// analysis does not track (non-pointer variables, constants, temps
  /// minted after construction).  A temp that existed at construction
  /// but never holds a pointer gets a non-null empty set: it addresses
  /// nothing.  A result with Unknown set means "any address-taken
  /// object".
  const PointsToSet *pointsTo(const Value &Ptr) const;

  /// Refinement of instrMayClobberVar(): may executing \p I overwrite
  /// the current activation's storage of scalar \p V?
  bool mayClobber(const Instr &I, VarId V) const;

  /// Refinement of instrMayReadVar(): may executing \p I observe the
  /// value of scalar \p V other than through a named operand?
  bool mayRead(const Instr &I, VarId V) const;

private:
  const ProgramInfo &Info;

  /// VarId-indexed flags; both stay empty in a function that takes no
  /// address.
  std::vector<char> AddrTaken, Escaped;

  /// Points-to sets of the pointer-typed variables and temps (every
  /// value that appears with pointer type, plus pointer parameters).
  /// VarSlot/TempSlot map a VarId/TempId to its set, ~0u for values that
  /// never hold a pointer; both stay empty in a pointer-free function.
  std::vector<PointsToSet> Sets;
  std::vector<unsigned> VarSlot, TempSlot;
  /// F.NextTemp at construction: temps at or beyond it are untracked.
  TempId NumTemps = 0;

  /// True when the store/load element type \p ElemTy can describe
  /// variable \p V's scalar slot (no casts in MiniC, so types must
  /// match exactly).
  bool typeMatches(IRType ElemTy, const VarInfo &V) const;

  void escapeSet(const PointsToSet &PT);
  void setEscaped(VarId V);
};

} // namespace sldb

#endif // SLDB_ANALYSIS_ALIASINFO_H
