//===- codegen/MachineFlow.cpp --------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/MachineFlow.h"

#include <algorithm>

using namespace sldb;

void MachineFlow::assign(const MachineFunction &F, unsigned U,
                         std::span<const Decision> Decisions, FlowMeet Meet) {
  MF = &F;
  Universe = U;
  Log = Decisions;
  const unsigned NB = static_cast<unsigned>(F.Blocks.size());
  // The problem and the solver's Out side are scratch, kept per thread.
  thread_local DataflowProblem P;
  thread_local DataflowResult R;
  P.Dir = FlowDir::Forward;
  P.Meet = Meet;
  P.Universe = U;
  auto Empty = [U](BitVector &X) {
    if (X.size() != U)
      X.resize(U);
    X.reset();
  };
  P.Gen.resize(NB);
  P.Kill.resize(NB);
  for (unsigned B = 0; B < NB; ++B) {
    Empty(P.Gen[B]);
    Empty(P.Kill[B]);
  }
  Empty(P.Boundary);
  // Each decision is a constant set or reset, so Gen = facts set last in
  // the block and Kill = facts reset last: Out = (In - Kill) | Gen
  // reproduces the per-instruction walk.
  BlockLog.resize(NB + 1);
  std::size_t E = 0;
  for (unsigned B = 0; B < NB; ++B) {
    const std::uint32_t End =
        F.BlockAddr[B] + static_cast<std::uint32_t>(F.Blocks[B].Insts.size());
    BlockLog[B] = E;
    for (; E < Log.size() && Log[E].Addr < End; ++E) {
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
  // The solver reads the blocks' own edge lists.
  In.swap(R.In);
  solveDataflowGeneric(
      NB, [&](unsigned B) -> const auto & { return F.Blocks[B].Preds; },
      [&](unsigned B) -> const auto & { return F.Blocks[B].Succs; },
      /*Exits=*/{}, P, R);
  In.swap(R.In);
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

void MachineFlow::expand(std::vector<BitVector> &At) const {
  // Follow each block's state from its entry solution through its
  // decisions and write every run of addresses where a fact holds as one
  // bit range.
  const std::uint32_t N = MF->numInstrs();
  At.resize(Universe);
  for (BitVector &Row : At) {
    if (Row.size() != N)
      Row.resize(N);
    Row.reset();
  }
  thread_local std::vector<std::uint32_t> RunStart;
  thread_local BitVector State;
  RunStart.resize(Universe);
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
        At[X.Fact].set(RunStart[X.Fact], X.Addr + 1);
      }
    }
    const auto Size = static_cast<std::uint32_t>(MF->Blocks[B].Insts.size());
    for (unsigned F : State)
      At[F].set(RunStart[F], MF->BlockAddr[B] + Size);
  }
}
