//===- analysis/ReachingDefs.h - Reaching definitions -----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic reaching-definitions analysis.  The universe has one bit per
/// definition site (instruction defining a tracked value), plus one
/// "unknown definition" pseudo-site per tracked value modeling parameter
/// values, clobbers through memory/calls, and function entry state.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_ANALYSIS_REACHINGDEFS_H
#define SLDB_ANALYSIS_REACHINGDEFS_H

#include "analysis/AliasInfo.h"
#include "analysis/CFGContext.h"
#include "analysis/Dataflow.h"
#include "analysis/InstrInfo.h"

#include <vector>

namespace sldb {

/// Reaching definitions for one function.
///
/// Definitions are numbered by value: value v owns the contiguous range
/// [defsBegin(v), defsEnd(v)) — its real definitions in instruction
/// order (CFG block order), then its unknown definition last.  A
/// definition therefore kills its value's whole range with one range
/// clear, and a value's definitions are walked without a universe-sized
/// mask.
class ReachingDefs {
public:
  /// \p AI refines the clobber rule: stores and calls only generate
  /// unknown definitions for scalars their pointers may actually reach.
  ReachingDefs(const CFGContext &CFG, const ValueIndex &VI,
               const ProgramInfo &Info, const AliasInfo &AI);

  /// One definition site.
  struct DefSite {
    const Instr *I = nullptr; ///< Null for pseudo (unknown) defs.
    unsigned ValueIdx = 0;    ///< ValueIndex of the defined value.
  };

  unsigned numDefs() const { return static_cast<unsigned>(Defs.size()); }
  const DefSite &def(unsigned Idx) const { return Defs[Idx]; }

  /// The definition range of one value: its real definitions in
  /// instruction order, followed by its unknown definition.
  unsigned defsBegin(unsigned ValueIdx) const { return DefStart[ValueIdx]; }
  unsigned defsEnd(unsigned ValueIdx) const { return DefStart[ValueIdx + 1]; }

  /// The pseudo "unknown definition" bit of a value (last in its range).
  unsigned unknownDef(unsigned ValueIdx) const {
    return DefStart[ValueIdx + 1] - 1;
  }
  bool isUnknownDef(unsigned DefIdx) const { return Defs[DefIdx].I == nullptr; }

  /// Reaching-def set at block entry.
  const BitVector &reachIn(unsigned BlockIdx) const { return R.In[BlockIdx]; }

  /// Applies the transfer function (forward) of instruction \p I, whose
  /// pool id is \p Id, to \p Reach.
  void transfer(InstrId Id, const Instr &I, BitVector &Reach) const;

  /// Definition bit of instruction \p Id, or ~0u if it defines nothing
  /// (or was created after the analysis).
  unsigned defIndexOf(InstrId Id) const {
    return Id < DefOfInstr.size() ? DefOfInstr[Id] : ~0u;
  }

private:
  /// Sets the unknown definition of every variable \p I may clobber.
  void genClobbers(const Instr &I, BitVector &Set) const;

  const ValueIndex &VI;
  const AliasInfo &AI;
  std::vector<DefSite> Defs;
  std::vector<unsigned> DefStart;   ///< Value -> first def; size+1 entries.
  std::vector<unsigned> DefOfInstr; ///< InstrId -> def bit, ~0u if none.
  DataflowResult R;
};

} // namespace sldb

#endif // SLDB_ANALYSIS_REACHINGDEFS_H
