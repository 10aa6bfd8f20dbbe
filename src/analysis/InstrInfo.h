//===- analysis/InstrInfo.h - Use/def queries -------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conservative use/def queries for instructions, including the may-use /
/// may-def effects of calls, loads and stores on address-taken and global
/// variables.  Also provides ValueIndex, the dense numbering of the
/// variables and temporaries a function touches (the bit positions of the
/// data-flow universes).
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_ANALYSIS_INSTRINFO_H
#define SLDB_ANALYSIS_INSTRINFO_H

#include "ir/IR.h"

#include <unordered_map>
#include <vector>

namespace sldb {

/// Returns the values directly read by \p I (operands only, no may-uses).
std::vector<Value> instrUses(const Instr &I);

/// Visits the values directly read by \p I (operands only, no may-uses)
/// without materializing a vector — the form the hot data-flow transfer
/// loops use.
template <typename Fn> inline void forEachUse(const Instr &I, Fn &&F) {
  switch (I.Op) {
  case Opcode::AddrOf:
    // The operand names a variable but its *address*, not its value, is
    // read; taking an address is not a use of the scalar value.
  case Opcode::DeadMarker:
  case Opcode::AvailMarker:
  case Opcode::Nop:
  case Opcode::Br:
    return;
  default:
    break;
  }
  for (const Value &V : I.Ops)
    if (V.isTemp() || V.isVar())
      F(V);
}

/// Returns true if \p I may write variable \p V through memory or a call
/// (not counting a direct destination).
bool instrMayClobberVar(const Instr &I, const VarInfo &V);

/// Returns true if \p I may read variable \p V indirectly (through memory
/// or a call).
bool instrMayReadVar(const Instr &I, const VarInfo &V);

/// Dense numbering of the scalar values (variables and temps) appearing in
/// one function: bit positions for liveness-style universes.
class ValueIndex {
public:
  ValueIndex(const IRFunction &F, const ProgramInfo &Info);

  unsigned size() const { return Count; }

  /// Index of a variable; ~0u if the variable is not tracked (arrays).
  unsigned varIndex(VarId V) const {
    return V < VarIdx.size() ? VarIdx[V] : ~0u;
  }

  /// Index of a temporary.  Temps minted after construction (by the
  /// running pass) are out of range and untracked, as before.
  unsigned tempIndex(TempId T) const {
    return T < TempIdx.size() ? TempIdx[T] : ~0u;
  }

  /// Index of a Value (Temp or Var); ~0u otherwise.
  unsigned valueIndex(const Value &V) const {
    if (V.isVar())
      return varIndex(V.Id);
    if (V.isTemp())
      return tempIndex(V.Id);
    return ~0u;
  }

  /// All tracked variables.
  const std::vector<VarId> &trackedVars() const { return Vars; }

  /// The tracked variables a Store, Load, Call or Ret may touch other
  /// than by name: the address-taken scalars and the globals, in
  /// trackedVars() order.  No other variable can satisfy
  /// instrMayClobberVar/instrMayReadVar or their AliasInfo refinements,
  /// so the may-def/may-use loops iterate only these.
  const std::vector<VarId> &memoryVars() const { return MemVars; }

  /// Reverse lookup: returns true + fills \p V if index \p Idx is a var.
  bool isVarIndex(unsigned Idx, VarId &V) const {
    if (Idx < Vars.size()) {
      V = Vars[Idx];
      return true;
    }
    return false;
  }

private:
  // Dense tables: VarId indexes ProgramInfo::Vars, TempId is allocated
  // densely per function, so flat vectors beat hashing on every operand
  // lookup.  ~0u marks untracked slots.
  std::vector<unsigned> VarIdx;
  std::vector<unsigned> TempIdx;
  std::vector<VarId> Vars;
  std::vector<VarId> MemVars;
  unsigned Count = 0;
};

} // namespace sldb

#endif // SLDB_ANALYSIS_INSTRINFO_H
