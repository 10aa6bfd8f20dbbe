//===- eval/Compile.cpp ---------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "eval/Compile.h"

#include "ir/IRGen.h"
#include "support/FaultInjector.h"

#include <string>

using namespace sldb;

namespace {

/// The arena's soft budget is sticky until reset: allocations past it
/// still succeed, so each phase boundary asks whether the phase that just
/// ran went over.
Status overBudget(const Arena *A, const char *Phase) {
  if (!A || !A->limitExceeded())
    return Status::success();
  return Status::error(ErrorCode::ResourceExhausted,
                       std::string("arena budget exceeded during ") + Phase +
                           " (limit " + std::to_string(A->limit()) +
                           " bytes)");
}

/// compileOptimizedIR's frontend half: the unoptimized IR.
Expected<std::unique_ptr<IRModule>> frontend(std::string_view Src, Arena *A,
                                             DiagnosticEngine *Diags) {
  DiagnosticEngine Local;
  DiagnosticEngine &D = Diags ? *Diags : Local;
  std::unique_ptr<IRModule> IR = compileToIR(Src, D, A);
  if (!IR) {
    std::string Msg = D.str();
    if (!Msg.empty() && Msg.back() == '\n')
      Msg.pop_back();
    return Status::error(ErrorCode::InvalidIR, std::move(Msg));
  }
  if (Status S = overBudget(A, "frontend"); !S.ok())
    return S;
  return IR;
}

/// compileOptimizedIR's optimizer half.
Status optimize(IRModule &IR, const OptOptions &Opts, Arena *A,
                const PipelineConfig &Config, PipelineStats *Stats) {
  if (Status S = runPipelineEx(IR, Opts, Config, Stats); !S.ok())
    return S;
  return overBudget(A, "optimizer");
}

} // namespace

Expected<std::unique_ptr<IRModule>>
sldb::compileOptimizedIR(std::string_view Src, const OptOptions &Opts,
                         Arena *A, const PipelineConfig &Config,
                         PipelineStats *Stats, DiagnosticEngine *Diags) {
  Expected<std::unique_ptr<IRModule>> IR = frontend(Src, A, Diags);
  if (!IR)
    return IR;
  if (Status S = optimize(**IR, Opts, A, Config, Stats); !S.ok())
    return S;
  return IR;
}

IRWithReference sldb::compileWithReference(std::string_view Src,
                                           const OptOptions &Opts,
                                           const CodegenOptions &RefCG,
                                           PipelineStats *Stats) {
  Expected<std::unique_ptr<IRModule>> IR = frontend(Src, nullptr, nullptr);
  if (!IR) {
    Status S = IR.status();
    return {std::move(IR), std::move(S)};
  }
  FaultInjector::suspend();
  Status RefS = optimize(**IR, OptOptions::none(), nullptr, {}, nullptr);
  Expected<MachineModule> Ref =
      RefS.ok() ? lowerModule(**IR, RefCG) : Expected<MachineModule>(RefS);
  FaultInjector::resume();
  if (Status S = optimize(**IR, Opts, nullptr, {}, Stats); !S.ok())
    return {S, S};
  return {std::move(IR), std::move(Ref)};
}

Expected<MachineModule> sldb::lowerModule(const IRModule &IR,
                                          const CodegenOptions &CG,
                                          Arena *A) {
  Expected<MachineModule> MM = compileToMachineE(IR, CG, A);
  if (!MM)
    return MM;
  if (Status S = overBudget(A, "codegen"); !S.ok())
    return S;
  return MM;
}

Expected<CompiledModule> sldb::compileModule(std::string_view Src,
                                             const OptOptions &Opts,
                                             const CodegenOptions &CG,
                                             Arena *A,
                                             const PipelineConfig &Config,
                                             PipelineStats *Stats,
                                             DiagnosticEngine *Diags) {
  Expected<std::unique_ptr<IRModule>> IR =
      compileOptimizedIR(Src, Opts, A, Config, Stats, Diags);
  if (!IR)
    return IR.status();
  Expected<MachineModule> MM = lowerModule(**IR, CG, A);
  if (!MM)
    return MM.status();
  return CompiledModule{std::move(*IR), std::move(*MM)};
}
