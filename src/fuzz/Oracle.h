//===- fuzz/Oracle.h - Lockstep O0/optimized ground-truth oracle -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ground-truth half of the differential fuzzing harness.  A program is
/// compiled twice — unoptimized and unpromoted (the semantics oracle: every
/// variable lives in its frame slot and is updated in source order) and
/// optimized — and both builds run under their debuggers with a breakpoint
/// on every statement.  At each paired stop the oracle records, for every
/// in-scope variable, the *expected* value (unoptimized semantics) next to
/// everything the optimized debugger claims: its Figure-1 verdict, the
/// value it would display, and what the debug tables say about residence.
///
/// DiffCheck.h consumes these observations and asserts the soundness
/// contract; this header is only about faithfully collecting them.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FUZZ_ORACLE_H
#define SLDB_FUZZ_ORACLE_H

#include "core/Debugger.h"
#include "eval/Compile.h"

#include <string>
#include <string_view>
#include <vector>

namespace sldb {

/// One variable, observed at one paired stop.
struct VarObservation {
  /// What the unoptimized build's debugger reports (the expected value;
  /// its verdict is trivially sound because nothing was transformed).
  VarReport Expected;

  /// What the optimized build's debugger reports.
  VarReport Opt;

  /// Whether the optimized build's debug tables (Storage / ResidentAt)
  /// say the variable occupies a live location at the stop address —
  /// the ground truth the Nonresident verdict must agree with.
  bool OptTableResident = false;

  /// Whether the *unoptimized* build initializes the variable on every
  /// path to this stop (intersect-meet reaching of any definition).
  /// When true, an optimized-side Uninitialized verdict contradicts the
  /// source semantics.  (The some-path case is left alone: branch
  /// folding may legitimately remove a some-path definition.)
  bool ExpectedInitAllPaths = false;

  /// Raw contents of the variable's storage home in the optimized build,
  /// read with no residence check (Debugger::peekStorage) — what a naive
  /// debugger would have printed.  Feeds the conservatism metric: a
  /// Suspect/Nonresident verdict whose raw value nevertheless equals the
  /// expected value was conservative, not necessary.
  bool RawValid = false;
  bool RawIsDouble = false;
  std::int64_t RawInt = 0;
  double RawDouble = 0.0;

  /// Whether the variable has pointer type.  A pointer's value is a
  /// frame (or global) address, and the two builds lay frames out
  /// differently — so value comparisons between the builds are
  /// meaningless for pointers, while the classification verdicts
  /// (init / residence agreement) still apply.
  bool IsPtr = false;
};

/// One paired statement-boundary stop.
struct StopObservation {
  FuncId Func = InvalidFunc;
  StmtId Stmt = InvalidStmt;
  std::vector<VarObservation> Vars;
};

/// Lockstep configuration.
struct LockstepOptions {
  /// Optimizations for the non-oracle build.  Defaults to the heaviest
  /// pipeline whose statement structure can still be paired one-to-one:
  /// everything except loop peeling and unrolling, which duplicate
  /// statements and break the syntactic pairing (same restriction as the
  /// NeverMisleads suite).  Scheduling is likewise off — endangerment
  /// from instruction scheduling is the authors' PLDI'93 paper, out of
  /// scope here (paper §1.3).
  OptOptions Opts = lockstepOpts();

  /// Promote source variables to registers in the optimized build
  /// (Figure 5(b) configuration).  Running a corpus in both modes
  /// exercises the residence tables as well as the reach analyses.
  bool Promote = true;

  /// Collect at most this many paired stops.
  unsigned MaxStops = 4000;

  /// Execution fuel (VM step budget) for both builds.  A generated
  /// program that loops forever stops with StopReason::StepLimit and a
  /// trap message naming the budget instead of hanging the campaign.
  std::uint64_t Fuel = 50'000'000;

  /// Record per-pipeline-slot firing counts (pass coverage).
  bool InstrumentPasses = false;

  static OptOptions lockstepOpts() {
    OptOptions O = OptOptions::all();
    O.LoopPeel = false;
    O.LoopUnroll = false;
    return O;
  }
};

/// One pass's aggregate activity over a module: how many (function, pass
/// slot) runs reported a change.  Names repeat in pipeline order when a
/// pass appears in several pipeline slots.  The campaigns use it to prove
/// the generated corpus actually exercises every optimization (no
/// silently-dead fuzz coverage).
struct PassFiring {
  std::string Name;
  unsigned Changed = 0; ///< Number of functions the slot transformed.
};

/// Everything one lockstep run observed.
struct LockstepResult {
  bool Compiled = false;
  std::string CompileError;

  /// Non-empty when the two builds' stop sequences could not be paired
  /// (after skipping oracle-only stops for vanished statements).  Always
  /// a harness finding: the statement map lost a statement it shouldn't
  /// have, or the optimizer miscompiled control flow.
  std::string PairError;

  std::vector<StopObservation> Stops;

  /// End-state comparison (behavioral equivalence of the two builds).
  StopReason ExpectedEnd = StopReason::Running;
  StopReason OptEnd = StopReason::Running;
  std::int64_t ExpectedExit = 0, OptExit = 0;
  std::string ExpectedOutput, OptOutput;

  /// Pipeline firing counts (when InstrumentPasses), plus machine-level
  /// evidence of the paper's endangering transformations in the
  /// optimized build.
  std::vector<PassFiring> Firings;
  unsigned NumHoisted = 0;   ///< IsHoisted instructions (PRE/LICM).
  unsigned NumSunk = 0;      ///< IsSunk instructions (PDE).
  unsigned NumDeadMarks = 0; ///< MDEAD markers (eliminated assignments).
  unsigned NumAvailMarks = 0;///< MAVAIL markers (PRE originals).
  unsigned NumSRRecords = 0; ///< Strength-reduction/IV recovery records.
};

/// The two builds a lockstep oracle compares: the reference
/// (unoptimized and unpromoted: every variable lives in its frame slot
/// and is updated in source order) and the optimized build under test,
/// with the optimized IR it was lowered from.  Both are unscheduled.
/// Borrowed: one reference and one optimized IR serve every codegen
/// mode a program is judged in.
struct LockstepBuilds {
  const MachineModule &Ref;
  const MachineModule &Opt;
  const IRModule &OptIR;
};

/// One program compiled for lockstep judging in any number of codegen
/// modes.  The frontend, IRGen and the optimizer run once, the reference
/// is built once with the FaultInjector suspended (an armed fault may
/// only corrupt the build it is aimed at, never the ground truth), and
/// each mode lowers the one optimized IR (eval/Compile.h: a lowering
/// equals a fresh compile in its mode).  The differential and stepping
/// oracles build their modules only through this class
/// (tools/check_no_direct_analyses.sh); the cross-level oracle judges
/// the builds its sweep already made.
class SharedBuilds {
public:
  /// Compiles \p Src at \p Opts, recording the pipeline's per-slot
  /// firing counts when \p Instrument, then the reference unless the
  /// optimized compile failed.
  SharedBuilds(std::string_view Src, const OptOptions &Opts,
               bool Instrument = false);

  /// Lowers the optimized IR for one mode.  The error is the first in
  /// a per-mode compile's order: the optimized build's own (frontend,
  /// optimizer, lowering), then the reference's, prefixed
  /// "oracle build: ".
  Expected<MachineModule> lower(bool Promote) const;

  /// The builds of a mode that lower() returned.
  LockstepBuilds builds(const MachineModule &Opt) const {
    return {Ref.value().MM, Opt, *OptIR.value()};
  }

  /// The pipeline's firing counts (empty unless instrumented).
  const std::vector<PassFiring> &firings() const { return Firings; }

private:
  std::vector<PassFiring> Firings; ///< Filled while OptIR compiles.
  Expected<std::unique_ptr<IRModule>> OptIR;
  Expected<CompiledModule> Ref;
};

/// Runs one mode's builds in lockstep, recording one StopObservation per
/// paired stop, and the builds' machine-level evidence.  O.Opts and
/// O.InstrumentPasses are not read (the builds are already compiled).
/// Never asserts: all findings are in the result for DiffCheck to judge.
LockstepResult runLockstep(const LockstepBuilds &B, const LockstepOptions &O);

/// Lowers \p B for O.Promote and runs it in lockstep; copies the
/// firings when O.InstrumentPasses.  A compile failure is the result's
/// CompileError.
LockstepResult runLockstep(const SharedBuilds &B, const LockstepOptions &O);

/// Compiles \p Src for one mode (O.Opts, O.Promote) and runs both builds
/// in lockstep.
LockstepResult runLockstep(std::string_view Src, const LockstepOptions &O);

} // namespace sldb

#endif // SLDB_FUZZ_ORACLE_H
