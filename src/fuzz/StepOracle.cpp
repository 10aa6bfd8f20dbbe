//===- fuzz/StepOracle.cpp ------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/StepOracle.h"

#include "support/FaultInjector.h"

#include <map>

using namespace sldb;

namespace {

/// The instruction at a function-local address (blocks are laid out
/// consecutively); nullptr when out of range.
const MInstr *instrAt(const MachineFunction &MF, std::uint32_t Addr) {
  std::uint32_t B = 0;
  while (B + 1 < MF.BlockAddr.size() && MF.BlockAddr[B + 1] <= Addr)
    ++B;
  std::uint32_t Off = Addr - MF.BlockAddr[B];
  if (Off >= MF.Blocks[B].Insts.size())
    return nullptr;
  return &MF.Blocks[B].Insts[Off];
}

using VisitKey = std::pair<FuncId, StmtId>;

/// Single-steps one build to completion, counting statement-boundary
/// stops.  Returns true when the event cap was hit (counts truncated).
bool stepSide(Debugger &D, unsigned MaxEvents,
              std::map<VisitKey, std::uint64_t> &Count, StopReason &End) {
  StopReason R = D.startPaused();
  unsigned Events = 0;
  while (R == StopReason::Breakpoint) {
    if (auto S = D.currentStmt())
      ++Count[{D.currentFunction(), *S}];
    if (++Events >= MaxEvents)
      return true;
    R = D.stepStmt();
  }
  End = R;
  return R == StopReason::StepLimit;
}

} // namespace

StepResult sldb::runStepLockstep(std::string_view Src,
                                 const StepOracleOptions &O) {
  return runStepLockstep(SharedBuilds(Src, O.Opts), O);
}

StepResult sldb::runStepLockstep(const SharedBuilds &B,
                                 const StepOracleOptions &O) {
  StepResult R;

  Expected<MachineModule> Lowered = B.lower(O.Promote);
  if (!Lowered) {
    R.CompileError = Lowered.status().str();
    return R;
  }
  const MachineModule &MMO = B.reference();
  const MachineModule &MM2 = *Lowered;
  R.Compiled = true;

  FaultInjector::suspend();
  Debugger SrcDbg(MMO, O.Fuel);
  FaultInjector::resume();
  Debugger OptDbg(MM2, O.Fuel);

  std::map<VisitKey, std::uint64_t> SrcCount, OptCount;
  FaultInjector::suspend();
  bool SrcCapped = stepSide(SrcDbg, O.MaxEvents, SrcCount, R.SrcEnd);
  FaultInjector::resume();
  bool OptCapped = stepSide(OptDbg, O.MaxEvents, OptCount, R.OptEnd);
  R.Capped = SrcCapped || OptCapped;

  R.SrcExit = SrcDbg.machine().exitValue();
  R.OptExit = OptDbg.machine().exitValue();
  R.SrcOutput = SrcDbg.machine().outputText();
  R.OptOutput = OptDbg.machine().outputText();

  // Merge the two count maps into one deterministic visit table.
  std::map<VisitKey, StepVisit> Merged;
  auto Row = [&](VisitKey K) -> StepVisit & {
    StepVisit &V = Merged[K];
    if (V.Func == InvalidFunc) {
      V.Func = K.first;
      V.Stmt = K.second;
      const FuncInfo &FI = MM2.Info->func(K.first);
      if (K.second < FI.Stmts.size())
        V.Line = FI.Stmts[K.second].Loc.Line;
      const MachineFunction &MF = MM2.Funcs[K.first];
      if (K.second < MF.StmtAddr.size() && MF.StmtAddr[K.second] >= 0) {
        V.OptHasCode = true;
        const MInstr *I =
            instrAt(MF, static_cast<std::uint32_t>(MF.StmtAddr[K.second]));
        V.OptAnchored = I && !I->IsHoisted && !I->IsSunk;
      }
    }
    return V;
  };
  for (const auto &[K, N] : SrcCount)
    Row(K).SrcVisits = N;
  for (const auto &[K, N] : OptCount)
    Row(K).OptVisits = N;
  for (auto &[K, V] : Merged)
    R.Visits.push_back(V);
  return R;
}

std::vector<Violation> sldb::checkStepping(const StepResult &R) {
  std::vector<Violation> Out;
  if (!R.Compiled || R.Capped)
    return Out;

  for (const StepVisit &V : R.Visits) {
    if (!V.OptAnchored)
      continue; // Hoisted/sunk anchors legally run a different count.
    if (V.OptVisits > V.SrcVisits)
      Out.push_back({ViolationKind::PhantomStop, V.Func, V.Stmt, "",
                     "line " + std::to_string(V.Line) +
                         ": optimized build stops " +
                         std::to_string(V.OptVisits) + "x but source runs " +
                         std::to_string(V.SrcVisits) + "x"});
    else if (V.SrcVisits > 0 && V.OptHasCode && V.OptVisits == 0)
      Out.push_back({ViolationKind::VanishedStop, V.Func, V.Stmt, "",
                     "line " + std::to_string(V.Line) + ": source runs " +
                         std::to_string(V.SrcVisits) +
                         "x but the optimized build never stops there"});
  }

  if (R.SrcEnd != R.OptEnd)
    Out.push_back({ViolationKind::BehaviorMismatch, InvalidFunc,
                   InvalidStmt, "",
                   "end states differ (oracle " +
                       std::to_string(static_cast<int>(R.SrcEnd)) +
                       " vs optimized " +
                       std::to_string(static_cast<int>(R.OptEnd)) + ")"});
  else if (R.SrcEnd == StopReason::Exited && R.SrcExit != R.OptExit)
    Out.push_back({ViolationKind::BehaviorMismatch, InvalidFunc,
                   InvalidStmt, "",
                   "exit values differ (" + std::to_string(R.SrcExit) +
                       " vs " + std::to_string(R.OptExit) + ")"});
  if (R.SrcOutput != R.OptOutput)
    Out.push_back({ViolationKind::BehaviorMismatch, InvalidFunc,
                   InvalidStmt, "", "program outputs differ"});
  return Out;
}
