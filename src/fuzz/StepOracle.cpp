//===- fuzz/StepOracle.cpp ------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/StepOracle.h"

#include "support/FaultInjector.h"
#include "support/Stats.h"

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

/// Single-steps \p MM to completion with \p O's fuel, counting
/// statement-boundary stops until O.MaxEvents of them.
StepWalk walk(const MachineModule &MM, const StepOracleOptions &O) {
  StepWalk W;
  W.Fuel = O.Fuel;
  W.MaxEvents = O.MaxEvents;
  Debugger D(MM, O.Fuel);
  StopReason R = D.startPaused();
  unsigned Events = 0;
  while (R == StopReason::Breakpoint) {
    if (auto S = D.currentStmt())
      ++W.Stops[{D.currentFunction(), *S}];
    if (++Events >= O.MaxEvents)
      break;
    R = D.stepStmt();
  }
  if (R == StopReason::Breakpoint) { // Cut at the event cap.
    W.Capped = true;
  } else {
    W.End = R;
    W.Capped = R == StopReason::StepLimit;
  }
  W.Exit = D.machine().exitValue();
  W.Output = D.machine().outputText();
  return W;
}

} // namespace

StepResult sldb::runStepLockstep(std::string_view Src,
                                 const StepOracleOptions &O) {
  std::optional<StepWalk> RefWalk;
  return runStepLockstep(SharedBuilds(Src, O.Opts), O, RefWalk);
}

StepResult sldb::runStepLockstep(const SharedBuilds &B,
                                 const StepOracleOptions &O,
                                 std::optional<StepWalk> &RefWalk) {
  StepResult R;

  Expected<MachineModule> Lowered = B.lower(O.Promote);
  if (!Lowered) {
    R.CompileError = Lowered.status().str();
    return R;
  }
  const MachineModule &MM2 = *Lowered;
  R.Compiled = true;

  if (!RefWalk || !RefWalk->serves(O)) {
    static StatCounter &Walks = Stats::counter("step.reference_walks");
    Walks.add();
    FaultInjector::suspend();
    RefWalk = walk(B.reference(), O);
    FaultInjector::resume();
  }
  const StepWalk &Src = *RefWalk;
  const StepWalk Opt = walk(MM2, O);
  R.Capped = Src.Capped || Opt.Capped;
  R.SrcEnd = Src.End;
  R.OptEnd = Opt.End;
  R.SrcExit = Src.Exit;
  R.OptExit = Opt.Exit;
  R.SrcOutput = Src.Output;
  R.OptOutput = Opt.Output;

  // Merge the two count maps into one deterministic visit table.
  std::map<std::pair<FuncId, StmtId>, StepVisit> Merged;
  auto Row = [&](std::pair<FuncId, StmtId> K) -> StepVisit & {
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
  for (const auto &[K, N] : Src.Stops)
    Row(K).SrcVisits = N;
  for (const auto &[K, N] : Opt.Stops)
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
