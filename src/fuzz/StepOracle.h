//===- fuzz/StepOracle.h - Stepping / line-table oracle ---------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stepping half of the cross-level oracle: single-step the
/// unoptimized and the optimized build *independently* (no pairing — the
/// optimized step sequence is legitimately reordered) and compare the
/// per-statement visit multisets.  The line table must never invent or
/// lose statement boundaries:
///
///   Phantom stop — the optimized build stops at a statement more often
///   than the source executes it.  Checked only for *anchored*
///   statements, whose start instruction is neither hoisted nor sunk: a
///   hoisted anchor (LICM preheader) legitimately executes even when the
///   loop body never runs, and the step count difference is the honest
///   footprint of the transformation, not a table bug.
///
///   Vanished stop — a statement the source executes, for which the
///   optimized build *has* anchored code, is never stepped to.  (A
///   statement with no code at all is fine — folded away — and a
///   hoisted/sunk anchor may legally run a different number of times.)
///
/// Behavioral divergence (exit state, output) is reported as in the
/// variable oracle.  Runs that hit the event cap skip the multiset
/// checks: a truncated count proves nothing.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FUZZ_STEPORACLE_H
#define SLDB_FUZZ_STEPORACLE_H

#include "fuzz/DiffCheck.h"

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sldb {

/// Stepping configuration (mirrors LockstepOptions).
struct StepOracleOptions {
  /// Optimizations for the non-oracle build: the heaviest pipeline whose
  /// statements still correspond one-to-one (no peel/unroll), exactly
  /// the variable oracle's restriction.
  OptOptions Opts = LockstepOptions::lockstepOpts();

  /// Promote source variables to registers in the optimized build.
  bool Promote = true;

  /// Per-build cap on statement-boundary stop events; a run that reaches
  /// it is marked Capped and exempted from the multiset checks.
  unsigned MaxEvents = 20000;

  /// Execution fuel (VM step budget) for both builds.
  std::uint64_t Fuel = 50'000'000;
};

/// Visit counts for one statement, accumulated over a whole run.
struct StepVisit {
  FuncId Func = InvalidFunc;
  StmtId Stmt = InvalidStmt;
  unsigned Line = 0;          ///< Source line of the statement.
  std::uint64_t SrcVisits = 0; ///< Stops in the unoptimized build.
  std::uint64_t OptVisits = 0; ///< Stops in the optimized build.
  bool OptHasCode = false;    ///< StmtAddr maps it in the optimized build.
  bool OptAnchored = false;   ///< Its start instruction is neither
                              ///< hoisted nor sunk.
};

/// Everything one stepping run observed.
struct StepResult {
  bool Compiled = false;
  std::string CompileError;

  /// Either build hit MaxEvents (or ran out of fuel): visit counts are
  /// truncated and must not be judged.
  bool Capped = false;

  /// Per-statement visit counts in (function, statement) order.
  std::vector<StepVisit> Visits;

  /// End-state comparison, as in LockstepResult.
  StopReason SrcEnd = StopReason::Running;
  StopReason OptEnd = StopReason::Running;
  std::int64_t SrcExit = 0, OptExit = 0;
  std::string SrcOutput, OptOutput;
};

/// One build single-stepped to completion: its statement-boundary stops
/// per (function, statement), then its end state.
struct StepWalk {
  std::uint64_t Fuel = 0;  ///< The execution fuel it ran with.
  unsigned MaxEvents = 0;  ///< The event cap it ran with.
  std::map<std::pair<FuncId, StmtId>, std::uint64_t> Stops;
  /// It hit MaxEvents (End stays Running) or ran out of fuel.
  bool Capped = false;
  StopReason End = StopReason::Running;
  std::int64_t Exit = 0;
  std::string Output;

  /// Whether the walk stands for runs with \p O's fuel and event cap.
  bool serves(const StepOracleOptions &O) const {
    return O.Fuel == Fuel && O.MaxEvents == MaxEvents;
  }
};

/// Lowers \p B for O.Promote and single-steps it to completion, counting
/// statement-boundary stops per statement, against the reference's walk.
/// The reference depends only on \p B, so it is walked once, with the
/// FaultInjector suspended, into \p RefWalk by the first run that lowers,
/// and every later run of \p B with the same fuel and event cap reads it
/// from there.  Each reference walk bumps `step.reference_walks`.  O.Opts
/// is not read (the builds are already compiled).  Never asserts:
/// findings are in the result for checkStepping to judge.
StepResult runStepLockstep(const SharedBuilds &B, const StepOracleOptions &O,
                           std::optional<StepWalk> &RefWalk);

/// Compiles \p Src for one mode (unoptimized-unpromoted oracle vs. \p O)
/// and steps both builds as above.
StepResult runStepLockstep(std::string_view Src, const StepOracleOptions &O);

/// Judges one stepping run: PhantomStop / VanishedStop per the header
/// comment, plus BehaviorMismatch for end-state divergence.  Empty means
/// the run's line table stepped soundly.
std::vector<Violation> checkStepping(const StepResult &R);

} // namespace sldb

#endif // SLDB_FUZZ_STEPORACLE_H
