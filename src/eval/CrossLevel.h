//===- eval/CrossLevel.h - Cross-level consistency sweep --------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static half of the cross-level consistency oracle: compile one
/// program at every level of the pipeline lattice (eval/Levels.h), run
/// every (breakpoint, variable) query at every level, and flag
/// *availability regressions* — a variable the debugger can show
/// (Current, or Recoverable per §2.5) at a more-optimized level while a
/// less-optimized level refuses or warns (Suspect / Nonresident).
///
/// A regression is a *candidate* anomaly, not automatically a bug: a
/// heavier pipeline can legitimately simplify away the very transform
/// that endangered the variable at the lighter level (constant folding
/// removing a PRE hoist, say).  The dynamic judge in
/// fuzz/QualityCampaign.h therefore re-checks each candidate against the
/// lockstep ground-truth oracle at the more-optimized level: a candidate
/// is *explained* when the oracle confirms every verdict there sound,
/// and *unexplained* — the tier-1 failure — when the oracle finds the
/// shown value wrong.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_EVAL_CROSSLEVEL_H
#define SLDB_EVAL_CROSSLEVEL_H

#include "core/Classifier.h"
#include "eval/Compile.h"
#include "eval/Measure.h"

#include <string>
#include <string_view>
#include <vector>

namespace sldb {

/// One availability regression between two comparable levels, deduped
/// per (function, statement, variable) point: the first triggering level
/// pair in canonical table order is recorded.
struct AvailRegression {
  std::string Program; ///< Corpus program name or seed label.
  PipelineLevel Less = PipelineLevel::O0; ///< The refusing level.
  PipelineLevel More = PipelineLevel::O2; ///< The showing level.
  FuncId Func = InvalidFunc;
  StmtId Stmt = InvalidStmt;
  VarId Var = InvalidVar;
  std::string FuncName, VarName;
  unsigned Line = 0;          ///< Source line of the statement.
  VarClass LessKind = VarClass::Suspect;
  VarClass MoreKind = VarClass::Current;
  bool MoreRecovered = false; ///< Shown via §2.5 recovery at More.

  std::string str() const;
};

/// One program, swept across the whole level table.
struct ProgramSweep {
  bool Compiled = false;
  std::string CompileError;

  /// Per-level coverage/quality counts, in pipelineLevels() order.
  std::vector<CoverageCounts> Levels;

  /// Candidate availability regressions, in (function, statement,
  /// variable) point order.
  std::vector<AvailRegression> Regressions;

  /// Every level's build, in pipelineLevels() order (empty unless
  /// Compiled).  The O0 row is the lockstep oracle's reference build.
  std::vector<CompiledModule> Builds;
};

/// Compiles and classifies \p Src at every level.  Codegen runs with
/// scheduling off so these are byte-for-byte the builds the lockstep
/// oracle judges, and the sweep keeps them for it.  Never asserts:
/// frontend/pipeline failures land in CompileError.
ProgramSweep sweepProgram(std::string_view Name, std::string_view Src);

/// Whole-corpus sweep: per-level counts summed over the corpus, all
/// programs' regressions concatenated in corpus order.
struct CrossLevelReport {
  std::vector<CoverageCounts> Levels;
  std::vector<AvailRegression> Regressions;
  unsigned Programs = 0;
  unsigned CompileErrors = 0;
};

CrossLevelReport sweepCorpus(const std::vector<BenchProgram> &Corpus);

/// Renders a sweep as the level quality table plus one line per
/// regression; golden-tested under tests/golden/crosslevel/.
std::string renderSweepReport(const CrossLevelReport &R);

} // namespace sldb

#endif // SLDB_EVAL_CROSSLEVEL_H
