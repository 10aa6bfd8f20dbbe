//===- analysis/SsaDefUse.h - Temp def-use chains ---------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Temp def-use facts, the substrate of the SSA-form passes (GVN, sparse
/// propagation, phi coalescing).  For every temp the analysis records
/// its defining instructions and counts its uses — including reads the
/// dense use iterator deliberately skips: a DeadMarker's recovery value
/// and the function's strength-reduction records both keep a temp alive
/// for the *debugger*, and an SSA pass that rewrites or deletes the def
/// must know.  It keeps no use lists: every client asks only how many
/// uses a temp has.
///
/// Only temps with exactly one def are in SSA form; pre-existing temps
/// can be multi-def (loop peeling/unrolling clones them), and the SSA
/// passes restrict themselves to singleDef() temps.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_ANALYSIS_SSADEFUSE_H
#define SLDB_ANALYSIS_SSADEFUSE_H

#include "analysis/CFGContext.h"

#include <vector>

namespace sldb {

/// Def sites and use counts of the function's temps, addressed by
/// InstrId (valid until the next mutation invalidates the analysis).
class SsaDefUse {
public:
  explicit SsaDefUse(const CFGContext &CFG);

  /// Number of defining instructions of temp \p T (0 for undefined /
  /// out-of-range temps).
  unsigned numDefs(TempId T) const {
    return T < Defs.size() ? Defs[T].NumDefs : 0;
  }

  /// True when temp \p T has exactly one defining instruction.
  bool singleDef(TempId T) const { return numDefs(T) == 1; }

  /// The single def's instruction id / block index; only meaningful when
  /// singleDef(T).
  InstrId defOf(TempId T) const { return Defs[T].Def; }
  unsigned defBlockOf(TempId T) const { return Defs[T].Block; }

  /// Total use count of \p T: one per operand occurrence, phi incoming
  /// and DeadMarker recovery value, plus one per SRRecord naming it (0
  /// for out-of-range temps).
  unsigned numUses(TempId T) const { return T < Uses.size() ? Uses[T] : 0; }

  /// Dense CFG index of the block holding instruction \p Id at analysis
  /// time; ~0u for pool ids not linked into any block.
  unsigned blockOfInstr(InstrId Id) const {
    return Id < InstrBlock.size() ? InstrBlock[Id] : ~0u;
  }

  /// Position of instruction \p Id within its block (0-based), so
  /// intra-block before/after queries need no list walk.
  unsigned ordinalOf(InstrId Id) const {
    return Id < InstrOrdinal.size() ? InstrOrdinal[Id] : 0;
  }

private:
  struct DefInfo {
    unsigned NumDefs = 0;
    InstrId Def = InvalidInstr;
    unsigned Block = ~0u;
  };
  std::vector<DefInfo> Defs;
  std::vector<unsigned> Uses;         ///< Temp -> use count.
  std::vector<unsigned> InstrBlock;   ///< Pool id -> dense block index.
  std::vector<unsigned> InstrOrdinal; ///< Pool id -> position in block.
};

} // namespace sldb

#endif // SLDB_ANALYSIS_SSADEFUSE_H
