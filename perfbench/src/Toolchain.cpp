//===- perfbench/src/Toolchain.cpp ----------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Toolchain.h"

#include "Harness.h"

#include "codegen/ISel.h"
#include "codegen/RegAlloc.h"
#include "codegen/Scheduler.h"
#include "core/Debugger.h"
#include "frontend/Sema.h"
#include "ir/IRGen.h"
#include "opt/Pass.h"
#include "support/Diagnostics.h"

using namespace sldb;

namespace perfbench {

std::uint64_t Compiled::machineInstrs() const {
  std::uint64_t N = 0;
  for (const MachineFunction &MF : MM.Funcs)
    N += MF.numInstrs();
  return N;
}

const LevelSpec &levelO2() {
  static const LevelSpec &L = *findLevel("O2");
  return L;
}

const LevelSpec &levelO2ssa() {
  static const LevelSpec &L = *findLevel("O2ssa");
  return L;
}

static std::uint64_t irInstrs(const IRModule &M) {
  std::uint64_t N = 0;
  for (const IRFunction *F : M.Funcs)
    for (const BasicBlock *B : F->Blocks)
      N += B->Insts.size();
  return N;
}

void compileSource(const std::string &Src, const LevelSpec &Level, Arena *A,
                   Compiled &Out, LayerLedger *Ledger) {
  DiagnosticEngine Diags;
  FrontendResult FR;
  {
    TraceSpan S("frontend", "perfbench");
    FR = runFrontend(Src, Diags);
  }
  if (!FR.TU) {
    Out.Error = "frontend rejected the program";
    return;
  }
  {
    TraceSpan S("irgen", "perfbench");
    Out.IR = generateIR(*FR.TU, std::move(FR.Info), &Diags, A);
  }
  if (!Out.IR) {
    Out.Error = "IR generation failed";
    return;
  }
  if (Ledger) {
    Ledger->sum("frontend.bytes") += static_cast<double>(Src.size());
    Ledger->sum("irgen.ir_instrs") += static_cast<double>(irInstrs(*Out.IR));
  }

  PipelineConfig Config;
  PipelineStats PS;
  Config.TimePasses = Ledger != nullptr;
  Status St;
  {
    TraceSpan S("opt", "perfbench");
    St = runPipelineEx(*Out.IR, Level.Opts, Config, Ledger ? &PS : nullptr);
  }
  if (!St.ok()) {
    Out.Error = St.str();
    return;
  }
  if (Ledger) {
    Ledger->sum("opt.ir_instrs_out") += static_cast<double>(irInstrs(*Out.IR));
    for (const PassSlotStats &Slot : PS.Slots) {
      const std::string Key = "opt." + passKey(Slot.Name);
      Ledger->sum(Key + ".ms") += Slot.WallMs;
      Ledger->sum(Key + ".changed") += Slot.Changed;
    }
  }

  CodegenOptions CG;
  CG.PromoteVars = Level.Promote;
  {
    TraceSpan S("isel", "perfbench");
    Out.MM = selectModule(*Out.IR, CG, A);
  }
  for (MachineFunction &MF : Out.MM.Funcs) {
    {
      TraceSpan S("sched", "perfbench");
      scheduleFunction(MF);
    }
    TraceSpan S("regalloc", "perfbench");
    Status RA = allocateRegistersE(MF, *Out.IR->Info);
    if (!RA.ok()) {
      Out.Error = RA.str();
      return;
    }
  }
}

void checkBackEnd(Compiled &C, const LevelSpec &Level) {
  if (!C.ok())
    return;
  CodegenOptions CG;
  CG.PromoteVars = Level.Promote;
  Expected<MachineModule> MM = compileToMachineE(*C.IR, CG);
  if (!MM.ok())
    C.Error = MM.status().str();
}

ExecResult referenceRun(const std::string &Src) {
  DiagnosticEngine Diags;
  std::unique_ptr<IRModule> IR = compileToIR(Src, Diags);
  if (!IR) {
    ExecResult R;
    R.Trapped = true;
    R.TrapMsg = "does not compile";
    return R;
  }
  return interpretIR(*IR);
}

SessionCounts debugToExit(const MachineModule &MM, LayerLedger *Ledger,
                          SpeedGauge *Gauge) {
  SessionCounts C;
  Debugger D(MM);
  for (FuncId F = 0; F < MM.Funcs.size(); ++F) {
    TraceSpan S("classifier.build", "perfbench");
    D.classifier(F);
  }
  D.breakEverywhere();
  if (Gauge)
    Gauge->tick();
  Clock::time_point Chunk = Clock::now();
  auto CloseChunk = [&] {
    const double Ms = msSince(Chunk);
    C.StopLoopWallMs += Ms;
    C.ChunkMs.push_back(Gauge ? Ms * Gauge->scale() : Ms);
    C.StopLoopMs += C.ChunkMs.back();
  };
  StopReason SR;
  {
    TraceSpan S("vm.resume", "perfbench");
    SR = D.run();
  }
  while (SR == StopReason::Breakpoint) {
    ++C.Stops;
    {
      TraceSpan S("debugger.scope", "perfbench");
      for (const VarReport &R : D.reportScope()) {
        ++C.Reports;
        C.Clean += R.Class.Kind == VarClass::Current || R.Class.Recoverable;
        C.Degraded += R.Class.Degraded;
      }
    }
    if (C.Stops % 4096 == 0 && (Ledger || Gauge)) {
      CloseChunk();
      if (Ledger)
        Ledger->fold();
      if (Gauge)
        Gauge->tick();
      Chunk = Clock::now();
    }
    TraceSpan S("vm.resume", "perfbench");
    SR = D.resume();
  }
  CloseChunk();
  C.Finished = SR == StopReason::Exited;
  C.VmInstrs = D.machine().instrCount();
  C.Output = D.machine().outputText();
  C.ExitValue = D.machine().exitValue();
  return C;
}

} // namespace perfbench
