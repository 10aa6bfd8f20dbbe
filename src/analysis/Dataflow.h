//===- analysis/Dataflow.h - Iterative bit-vector solver --------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generic iterative gen/kill bit-vector data-flow solver.  All of the
/// paper's analyses — reaching definitions, liveness, availability, and the
/// novel hoist-reach and dead-reach problems — instantiate this framework,
/// exactly as cmcc reused its optimizer's data-flow modules (paper §1,
/// "the data-flow analysis required to support the debugger ... uses the
/// same modules").
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_ANALYSIS_DATAFLOW_H
#define SLDB_ANALYSIS_DATAFLOW_H

#include "analysis/CFGContext.h"
#include "support/BitVector.h"

#include <utility>
#include <vector>

namespace sldb {

/// Direction of propagation.
enum class FlowDir { Forward, Backward };

/// Meet operator: union ("along some path") or intersection ("along all
/// paths").  The paper's suspect/noncurrent split is exactly the difference
/// between these two meets over the same gen/kill sets (Lemmas 2/3, 5/6).
enum class FlowMeet { Union, Intersect };

/// A gen/kill data-flow problem over a fixed universe of facts.
struct DataflowProblem {
  FlowDir Dir = FlowDir::Forward;
  FlowMeet Meet = FlowMeet::Union;
  unsigned Universe = 0;

  /// Per-block transfer function pieces, indexed by CFG block index.
  std::vector<BitVector> Gen, Kill;

  /// Value at the boundary (entry for forward, virtual exit for backward).
  BitVector Boundary;

  /// Initializes Gen/Kill/Boundary to empty sets for \p CFG.
  void init(const CFGContext &CFG, unsigned UniverseSize) {
    Universe = UniverseSize;
    Gen.assign(CFG.numBlocks(), BitVector(Universe));
    Kill.assign(CFG.numBlocks(), BitVector(Universe));
    Boundary = BitVector(Universe);
  }
};

/// Fixed point of a data-flow problem: In/Out per block.
struct DataflowResult {
  std::vector<BitVector> In, Out;
};

/// Solves \p P over \p CFG by worklist iteration to the maximum (Intersect)
/// or minimum (Union) fixed point.
DataflowResult solveDataflow(const CFGContext &CFG, const DataflowProblem &P);

/// Graph-agnostic variant over edge lists read in place: \p PredsOf(B)
/// and \p SuccsOf(B) return block B's lists by block index (block 0 =
/// entry; one container type for both), so a caller's own block array
/// needs no copy.  \p Exits lists the blocks meeting the virtual exit
/// (read by backward problems only).  In/Out go into \p R, reusing its
/// storage.  Used by the debugger-side analyses, which run over
/// *machine* CFGs (paper §3: the analyses are performed on the final
/// instruction-level representation).
template <typename PredsFn, typename SuccsFn>
void solveDataflowGeneric(unsigned NumBlocks, PredsFn PredsOf,
                          SuccsFn SuccsOf, const std::vector<unsigned> &Exits,
                          const DataflowProblem &P, DataflowResult &R);

} // namespace sldb

//===----------------------------------------------------------------------===//
// The worklist solver behind every entry.
//
// Blocks are processed in traversal order — reverse post-order for forward
// problems, post-order for backward ones (the CFGContext block order *is*
// RPO) — so most problems converge in one or two visits per block.  A
// block is re-queued only when the result side of an edge into it
// changed.  The worklist lives per thread and the BitVector scratch is
// allocated once before the loop and refilled in place: the inner loop is
// pure word-parallel set algebra over preallocated storage.
//
// The fixed point of a monotone gen/kill problem is unique, so the visit
// order changes iteration counts, never results.
//===----------------------------------------------------------------------===//

template <typename PredsFn, typename SuccsFn>
void sldb::solveDataflowGeneric(unsigned N, PredsFn PredsOf, SuccsFn SuccsOf,
                                const std::vector<unsigned> &Exits,
                                const DataflowProblem &P, DataflowResult &R) {
  const bool Fwd = P.Dir == FlowDir::Forward;
  const bool Union = P.Meet == FlowMeet::Union;

  // Every block starts at the meet's identity: bottom for union, top for
  // intersection.  Assigning over R's existing vectors reuses their
  // storage.
  const BitVector InitVal(P.Universe, !Union);
  R.In.assign(N, InitVal);
  R.Out.assign(N, InitVal);

  // "Meet input" of a block: In for forward, Out for backward.
  // "Result" of a block:     Out for forward, In for backward.
  auto &MeetSide = Fwd ? R.In : R.Out;
  auto &ResultSide = Fwd ? R.Out : R.In;
  // The blocks whose results feed B (preds for forward, succs for
  // backward), and the blocks that consume B's result.
  auto EdgesIn = [&](unsigned B) -> decltype(auto) {
    return Fwd ? PredsOf(B) : SuccsOf(B);
  };
  auto EdgesOut = [&](unsigned B) -> decltype(auto) {
    return Fwd ? SuccsOf(B) : PredsOf(B);
  };

  // Per block: 1 while on the worklist, 2 set when it meets the boundary.
  thread_local std::vector<unsigned char> Flags;
  thread_local std::vector<unsigned> Work;
  constexpr unsigned char OnList = 1, IsBoundary = 2;
  Flags.assign(N, OnList);
  if (Fwd) {
    if (N)
      Flags[0] |= IsBoundary; // Entry block has index 0.
  } else {
    for (unsigned E : Exits)
      Flags[E] |= IsBoundary;
  }

  // LIFO worklist, seeded so the first N pops visit every block in
  // traversal order (RPO forward, post-order backward).
  Work.clear();
  for (unsigned Step = 0; Step < N; ++Step)
    Work.push_back(Fwd ? N - 1 - Step : Step);

  // Scratch reused across every visit; same-size BitVector assignment
  // rewrites the existing words without reallocating.
  BitVector NewMeet(P.Universe);
  BitVector NewResult(P.Universe);

  while (!Work.empty()) {
    unsigned B = Work.back();
    Work.pop_back();
    Flags[B] &= ~OnList;

    // Meet over incoming edges (plus the boundary value for boundary
    // blocks).  A block with no incoming information keeps the top
    // (Intersect) or bottom (Union) value.
    bool First = true;
    for (unsigned E : EdgesIn(B)) {
      if (First) {
        NewMeet = ResultSide[E];
        First = false;
      } else if (Union) {
        NewMeet |= ResultSide[E];
      } else {
        NewMeet &= ResultSide[E];
      }
    }
    if (Flags[B] & IsBoundary) {
      if (First) {
        NewMeet = P.Boundary;
        First = false;
      } else if (Union) {
        NewMeet |= P.Boundary;
      } else {
        NewMeet &= P.Boundary;
      }
    }
    if (First)
      NewMeet = InitVal;

    NewResult = NewMeet;
    NewResult.subtract(P.Kill[B]);
    NewResult |= P.Gen[B];

    if (NewMeet != MeetSide[B])
      std::swap(MeetSide[B], NewMeet);
    if (NewResult != ResultSide[B]) {
      std::swap(ResultSide[B], NewResult);
      // B's result feeds its out-edges; requeue the consumers.
      for (unsigned S : EdgesOut(B))
        if (!(Flags[S] & OnList)) {
          Flags[S] |= OnList;
          Work.push_back(S);
        }
    }
  }
}

#endif // SLDB_ANALYSIS_DATAFLOW_H
