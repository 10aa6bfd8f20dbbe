//===- analysis/Dataflow.cpp ----------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The CFGContext entry of the solver; the solver itself is the template
// in Dataflow.h.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"

using namespace sldb;

DataflowResult sldb::solveDataflow(const CFGContext &CFG,
                                   const DataflowProblem &P) {
  // Reads the context's edge lists in place — no per-call CFG copy.
  DataflowResult R;
  solveDataflowGeneric(
      CFG.numBlocks(),
      [&](unsigned B) -> const std::vector<unsigned> & { return CFG.preds(B); },
      [&](unsigned B) -> const std::vector<unsigned> & { return CFG.succs(B); },
      CFG.exits(), P, R);
  return R;
}
