//===- analysis/Liveness.h - Live variables ---------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward live-variable analysis over the ValueIndex universe
/// (variables + temporaries), with per-instruction queries.  Drives dead
/// assignment elimination, partial dead-code elimination (sinking), and
/// register allocation.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_ANALYSIS_LIVENESS_H
#define SLDB_ANALYSIS_LIVENESS_H

#include "analysis/AliasInfo.h"
#include "analysis/CFGContext.h"
#include "analysis/Dataflow.h"
#include "analysis/InstrInfo.h"

namespace sldb {

/// Live-variable analysis result.
class Liveness {
public:
  /// \p AI refines the may-use rule: loads and calls only read the
  /// address-taken scalars their pointer operands may actually address.
  Liveness(const CFGContext &CFG, const ValueIndex &VI,
           const ProgramInfo &Info, const AliasInfo &AI);

  /// Live set at block entry / exit.
  const BitVector &liveIn(unsigned BlockIdx) const { return R.In[BlockIdx]; }
  const BitVector &liveOut(unsigned BlockIdx) const {
    return R.Out[BlockIdx];
  }

  /// Applies one instruction's transfer function (backward) to \p Live.
  void transfer(const Instr &I, BitVector &Live) const;

  const ValueIndex &values() const { return VI; }

private:
  const ValueIndex &VI;
  const AliasInfo &AI;
  DataflowResult R;
};

} // namespace sldb

#endif // SLDB_ANALYSIS_LIVENESS_H
