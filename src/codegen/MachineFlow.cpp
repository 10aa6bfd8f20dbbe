//===- codegen/MachineFlow.cpp --------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/MachineFlow.h"

#include <algorithm>

using namespace sldb;

MachineFlow::MachineFlow(const MachineFunction &MF, unsigned Universe,
                         std::vector<Decision> Decisions, FlowMeet Meet)
    : MF(&MF), Universe(Universe), Log(std::move(Decisions)) {
  const unsigned NB = static_cast<unsigned>(MF.Blocks.size());
  std::vector<std::vector<unsigned>> Preds(NB), Succs(NB);
  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Meet = Meet;
  P.Universe = Universe;
  P.Gen.assign(NB, BitVector(Universe));
  P.Kill.assign(NB, BitVector(Universe));
  P.Boundary = BitVector(Universe);
  // Each decision is a constant set or reset, so Gen = facts set last in
  // the block and Kill = facts reset last: Out = (In - Kill) | Gen
  // reproduces the per-instruction walk.
  BlockLog.resize(NB + 1);
  std::size_t E = 0;
  for (unsigned B = 0; B < NB; ++B) {
    const MachineBlock &Blk = MF.Blocks[B];
    Preds[B].assign(Blk.Preds.begin(), Blk.Preds.end());
    Succs[B].assign(Blk.Succs.begin(), Blk.Succs.end());
    BlockLog[B] = E;
    for (; E < Log.size() && Log[E].Addr < MF.BlockAddr[B] + Blk.Insts.size();
         ++E) {
      const Decision &X = Log[E];
      if (X.Set) {
        P.Gen[B].set(X.Fact);
        P.Kill[B].reset(X.Fact);
      } else {
        P.Gen[B].reset(X.Fact);
        P.Kill[B].set(X.Fact);
      }
    }
  }
  BlockLog[NB] = E;
  In = solveDataflowGeneric(NB, Preds, Succs, /*Exits=*/{}, P).In;
}

BitVector MachineFlow::at(std::uint32_t Addr) const {
  const std::vector<std::uint32_t> &Starts = MF->BlockAddr;
  const std::size_t B =
      std::upper_bound(Starts.begin(), Starts.end(), Addr) - Starts.begin() -
      1;
  BitVector State = In[B];
  for (std::size_t E = BlockLog[B]; E < BlockLog[B + 1] && Log[E].Addr < Addr;
       ++E) {
    if (Log[E].Set)
      State.set(Log[E].Fact);
    else
      State.reset(Log[E].Fact);
  }
  return State;
}

std::vector<BitVector> MachineFlow::expand() const {
  // Follow each block's state from its entry solution through its
  // decisions and record every run of addresses where a fact holds.
  std::vector<BitVector> At(Universe, BitVector(MF->numInstrs()));
  std::vector<std::uint32_t> RunStart(Universe);
  auto EndRun = [&](unsigned F, std::uint32_t End) {
    for (std::uint32_t A = RunStart[F]; A < End; ++A)
      At[F].set(A);
  };
  BitVector State; // Reused: same-size assignment does not reallocate.
  for (unsigned B = 0; B < In.size(); ++B) {
    State = In[B];
    for (unsigned F : State)
      RunStart[F] = MF->BlockAddr[B];
    for (std::size_t E = BlockLog[B]; E < BlockLog[B + 1]; ++E) {
      const Decision &X = Log[E];
      if (X.Set && !State.test(X.Fact)) {
        State.set(X.Fact);
        RunStart[X.Fact] = X.Addr + 1;
      } else if (!X.Set && State.test(X.Fact)) {
        State.reset(X.Fact);
        EndRun(X.Fact, X.Addr + 1);
      }
    }
    for (unsigned F : State)
      EndRun(F, MF->BlockAddr[B] +
                    static_cast<std::uint32_t>(MF->Blocks[B].Insts.size()));
  }
  return At;
}
