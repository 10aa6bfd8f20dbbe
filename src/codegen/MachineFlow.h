//===- codegen/MachineFlow.h - Decision-log data flow -----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one solver of the debugger's data-flow problems over final machine
/// code (paper §3: the analyses run on the final instruction-level
/// representation, with the compiler's own data-flow modules).  A client
/// states its problem once, as a log of the decisions each instruction
/// makes about each fact — set it or reset it, whatever held before; an
/// instruction keeps every fact it does not decide.  This module derives
/// the block gen/kill sets from that log, solves them under either meet
/// through solveDataflowGeneric, and answers from the same log per
/// address, so block summaries and per-address states cannot disagree.
///
/// The register allocator's debug tables (residence, recovery ownership
/// and validity) and the classifier's init, hoist and dead reach and
/// recovery taint are all such logs.  It lives in codegen because the
/// allocator needs it and the classifier's library links codegen.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_CODEGEN_MACHINEFLOW_H
#define SLDB_CODEGEN_MACHINEFLOW_H

#include "analysis/Dataflow.h"
#include "codegen/MachineIR.h"

#include <span>
#include <vector>

namespace sldb {

/// One decision of the final code about a fact: the instruction at Addr
/// makes the fact hold (Set) or not, whatever held before.
struct Decision {
  std::uint32_t Addr;
  unsigned Fact;
  bool Set;
};

/// A forward problem over the laid-out code of a machine function (its
/// BlockAddr filled), stated as a decision log and solved under one meet.
/// The flow borrows the log: it must outlive the flow and stay unchanged
/// while the flow answers, so flows under both meets can share one log.
class MachineFlow {
public:
  /// No problem yet: a placeholder to assign a solved flow to.
  MachineFlow() = default;

  /// Solves the problem whose transfer is \p Decisions: in address order,
  /// a later decision at an address overriding an earlier one.  The
  /// entry block starts with no fact holding.
  MachineFlow(const MachineFunction &MF, unsigned Universe,
              std::span<const Decision> Decisions, FlowMeet Meet) {
    assign(MF, Universe, Decisions, Meet);
  }

  /// Solves a new problem in place of this one, as the constructor does,
  /// reusing this flow's storage (the register allocator keeps one flow
  /// per thread).
  void assign(const MachineFunction &MF, unsigned Universe,
              std::span<const Decision> Decisions, FlowMeet Meet);

  /// The facts holding just before the instruction at \p Addr, which may
  /// be the past-the-end address numInstrs(): the entry state of the last
  /// block starting at or before \p Addr, advanced through that block's
  /// decisions below \p Addr.
  BitVector at(std::uint32_t Addr) const;

  /// Per fact, every address where it holds.
  std::vector<BitVector> expand() const {
    std::vector<BitVector> Rows;
    expand(Rows);
    return Rows;
  }
  /// The same into \p Rows, reusing their storage.
  void expand(std::vector<BitVector> &Rows) const;

private:
  const MachineFunction *MF = nullptr;
  unsigned Universe = 0;
  std::span<const Decision> Log;
  std::vector<std::size_t> BlockLog; ///< Block -> its first decision.
  std::vector<BitVector> In;         ///< Block -> facts at its entry.
};

} // namespace sldb

#endif // SLDB_CODEGEN_MACHINEFLOW_H
