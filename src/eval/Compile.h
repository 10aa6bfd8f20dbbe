//===- eval/Compile.h - The source-to-machine-code driver -------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// compileModule, the one driver from MiniC source to machine code:
/// compileToIR, runPipelineEx and compileToMachineE with one error
/// channel.  The layer functions stay public for consumers that stop at
/// the IR (sldbc --emit=ir*, the optimizer tests) and for the
/// benchmark's per-layer timers.
///
/// Its two halves are public too, for callers that lower one optimized
/// module in several codegen configurations (the fuzz oracles judge
/// every program with variables promoted and in frame slots):
/// compileOptimizedIR runs the frontend and the optimizer once, and
/// lowerModule lowers the result as often as needed.  Each lowering
/// equals a fresh compileModule in its configuration: the pipeline never
/// reads CodegenOptions and the back end reads the IR as const.
/// compileWithReference also lowers the unoptimized IR of the same
/// frontend run, the fuzz oracles' reference, before optimizing it.
///
/// It takes OptOptions plus CodegenOptions rather than a LevelSpec: the
/// lockstep reference build, sldbc's -O0/--no-promote combinations and
/// every Schedule choice are not rows of the level table.  Callers that
/// hold a level pass `L.Opts, {L.Promote, Sched}`.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_EVAL_COMPILE_H
#define SLDB_EVAL_COMPILE_H

#include "codegen/ISel.h"
#include "opt/Pass.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string_view>

namespace sldb {

/// One compiled program: the optimized IR and its machine code.
struct CompiledModule {
  /// Declared first so it is destroyed last: MM borrows IR->Info and,
  /// given an arena, shares it.
  std::unique_ptr<IRModule> IR;
  MachineModule MM;
};

/// Compiles \p Src at \p Opts (OptOptions::none() is the empty pipeline)
/// and lowers it with \p CG.
///
/// Errors:
///  * a frontend failure is InvalidIR whose message is the diagnostics
///    text; \p Diags, when given, receives the diagnostics themselves, so
///    a caller can tell a rejected source from a back-end InvalidIR;
///  * optimizer and back-end failures are returned unchanged;
///  * with an arena \p A (IR and machine code both live in it), its
///    budget is checked after the frontend, the optimizer and the back
///    end (the Arena.h contract); the first phase over budget ends the
///    compile with ResourceExhausted.
///
/// \p Config and \p Stats are passed to runPipelineEx.
Expected<CompiledModule> compileModule(std::string_view Src,
                                       const OptOptions &Opts,
                                       const CodegenOptions &CG,
                                       Arena *A = nullptr,
                                       const PipelineConfig &Config = {},
                                       PipelineStats *Stats = nullptr,
                                       DiagnosticEngine *Diags = nullptr);

/// compileModule up to the optimized IR: the frontend and the optimizer,
/// with compileModule's errors and arena checks for those phases.
Expected<std::unique_ptr<IRModule>>
compileOptimizedIR(std::string_view Src, const OptOptions &Opts,
                   Arena *A = nullptr, const PipelineConfig &Config = {},
                   PipelineStats *Stats = nullptr,
                   DiagnosticEngine *Diags = nullptr);

/// compileModule's back end: lowers \p IR with \p CG, returning a
/// back-end failure unchanged and checking the arena's budget after.
/// The result borrows IR.Info, so \p IR must outlive it.
Expected<MachineModule> lowerModule(const IRModule &IR,
                                    const CodegenOptions &CG,
                                    Arena *A = nullptr);

/// A program's optimized IR and its reference build, from one frontend
/// run (compileWithReference).
struct IRWithReference {
  /// compileOptimizedIR's result.  Declared first so it is destroyed
  /// last: Ref borrows its ProgramInfo.
  Expected<std::unique_ptr<IRModule>> OptIR;
  /// The unoptimized build; OptIR's error when OptIR failed.
  Expected<MachineModule> Ref;
};

/// compileOptimizedIR(Src, Opts) that also builds the program's
/// reference from the same frontend run: before the optimizer runs, the
/// unoptimized IR takes the empty pipeline (its annotation findings) and
/// is lowered with \p RefCG, with the FaultInjector suspended.  Ref is
/// exactly what compileModule(Src, OptOptions::none(), RefCG) builds,
/// since the optimizer never writes the ProgramInfo that Ref borrows and
/// no fault point fires in the frontend or the optimizer (they fire in
/// ISel, the classifier and the VM).  \p Stats is passed to the
/// optimizer's runPipelineEx.
IRWithReference compileWithReference(std::string_view Src,
                                     const OptOptions &Opts,
                                     const CodegenOptions &RefCG,
                                     PipelineStats *Stats = nullptr);

} // namespace sldb

#endif // SLDB_EVAL_COMPILE_H
