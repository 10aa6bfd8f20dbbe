//===- perfbench/src/Toolchain.h - Timed calls into the layers --*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile path and the debugger session as the benchmark drives
/// them: one public call per layer (runFrontend, generateIR,
/// runPipelineEx, selectModule, scheduleFunction, allocateRegistersE,
/// Classifier, Debugger), each wrapped in a TraceSpan of category
/// "perfbench".  With tracing off the spans cost one relaxed load, and
/// the traced and untraced runs execute the same calls.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TOOLCHAIN_H
#define PERFBENCH_TOOLCHAIN_H

#include "codegen/MachineIR.h"
#include "eval/Levels.h"
#include "ir/IR.h"
#include "ir/Interp.h"
#include "support/Arena.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class LayerLedger;
class SpeedGauge;

/// One compiled module.  Members are ordered so the machine module is
/// destroyed before the IR (both may live in a caller's arena, which the
/// caller resets only after destroying this object).
struct Compiled {
  std::unique_ptr<sldb::IRModule> IR;
  sldb::MachineModule MM;
  std::string Error; ///< Empty on success.

  bool ok() const { return Error.empty(); }
  std::uint64_t machineInstrs() const;
};

/// The two pipeline levels the benchmark compiles at.
const sldb::LevelSpec &levelO2();
const sldb::LevelSpec &levelO2ssa();

/// Source -> machine code at \p Level, one span per layer.  \p A (may be
/// null) backs the IR and machine code.  With \p Ledger set (traced
/// runs), also records source bytes, IR instruction counts before and
/// after the pipeline, and per-pass time and change counts from
/// PipelineStats.
void compileSource(const std::string &Src, const sldb::LevelSpec &Level,
                   sldb::Arena *A, Compiled &Out,
                   LayerLedger *Ledger = nullptr);

/// Runs the back end again on \p C's optimized IR through
/// compileToMachineE, the path that reports instruction-selection errors
/// (selectModule drops them, and a machine function selected with one is
/// unusable), and sets C.Error when it fails.  Not part of any timed
/// section: callers run it after taking their time.
void checkBackEnd(Compiled &C, const sldb::LevelSpec &Level);

/// The semantic reference of \p Src: the unoptimized IR, interpreted.
sldb::ExecResult referenceRun(const std::string &Src);

/// Counts of one debugger session run to exit.
struct SessionCounts {
  std::uint64_t Stops = 0;
  std::uint64_t Reports = 0;
  std::uint64_t Clean = 0;    ///< Reports shown without a warning.
  std::uint64_t Degraded = 0; ///< Reports answered by the fail-safe path.
  std::uint64_t VmInstrs = 0;
  bool Finished = false;      ///< Exited normally (no trap, no fuel-out).
  double StopLoopMs = 0;      ///< From the first resume to exit.
  double StopLoopWallMs = 0;  ///< The same, unscaled.
  std::vector<double> ChunkMs; ///< Scaled time of each 4096-stop chunk.
  std::string Output;
  std::int64_t ExitValue = 0;
};

/// Debugs \p MM with a breakpoint at every statement and a full scope
/// report at every stop, to exit.  Classifiers are built before the first
/// resume.  Every 4096 stops the loop pauses its clock for bookkeeping:
/// \p Ledger (traced runs) is folded to bound the buffered events, and
/// \p Gauge is ticked, each 4096-stop chunk's time being scaled by it
/// (StopLoopMs is then in reference ms).
SessionCounts debugToExit(const sldb::MachineModule &MM,
                          LayerLedger *Ledger = nullptr,
                          SpeedGauge *Gauge = nullptr);

} // namespace perfbench

#endif // PERFBENCH_TOOLCHAIN_H
