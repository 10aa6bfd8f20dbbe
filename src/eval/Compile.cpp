//===- eval/Compile.cpp ---------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "eval/Compile.h"

#include "ir/IRGen.h"

#include <string>

using namespace sldb;

Expected<CompiledModule> sldb::compileModule(std::string_view Src,
                                             const OptOptions &Opts,
                                             const CodegenOptions &CG,
                                             Arena *A,
                                             const PipelineConfig &Config,
                                             PipelineStats *Stats,
                                             DiagnosticEngine *Diags) {
  // The arena's soft budget is sticky until reset: allocations past it
  // still succeed, so each phase boundary asks whether the phase that
  // just ran went over.
  auto OverBudget = [A](const char *Phase) {
    if (!A || !A->limitExceeded())
      return Status::success();
    return Status::error(ErrorCode::ResourceExhausted,
                         std::string("arena budget exceeded during ") +
                             Phase + " (limit " + std::to_string(A->limit()) +
                             " bytes)");
  };

  CompiledModule C;
  DiagnosticEngine Local;
  DiagnosticEngine &D = Diags ? *Diags : Local;
  C.IR = compileToIR(Src, D, A);
  if (!C.IR) {
    std::string Msg = D.str();
    if (!Msg.empty() && Msg.back() == '\n')
      Msg.pop_back();
    return Status::error(ErrorCode::InvalidIR, std::move(Msg));
  }
  if (Status S = OverBudget("frontend"); !S.ok())
    return S;
  if (Status S = runPipelineEx(*C.IR, Opts, Config, Stats); !S.ok())
    return S;
  if (Status S = OverBudget("optimizer"); !S.ok())
    return S;
  Expected<MachineModule> MM = compileToMachineE(*C.IR, CG, A);
  if (!MM)
    return MM.status();
  if (Status S = OverBudget("codegen"); !S.ok())
    return S;
  C.MM = std::move(*MM);
  return C;
}
