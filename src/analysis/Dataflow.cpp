//===- analysis/Dataflow.cpp ----------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The two vector-list entries of the solver; the solver itself is the
// template in Dataflow.h.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"

using namespace sldb;

DataflowResult sldb::solveDataflowGeneric(
    unsigned NumBlocks, const std::vector<std::vector<unsigned>> &Preds,
    const std::vector<std::vector<unsigned>> &Succs,
    const std::vector<unsigned> &Exits, const DataflowProblem &P) {
  DataflowResult R;
  solveDataflowGeneric(
      NumBlocks,
      [&](unsigned B) -> const std::vector<unsigned> & { return Preds[B]; },
      [&](unsigned B) -> const std::vector<unsigned> & { return Succs[B]; },
      Exits, P, R);
  return R;
}

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
