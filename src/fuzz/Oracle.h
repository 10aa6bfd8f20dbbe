//===- fuzz/Oracle.h - Lockstep O0/optimized ground-truth oracle -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ground-truth half of the differential fuzzing harness.  A program is
/// lowered twice — unoptimized and unpromoted (the semantics oracle: every
/// variable lives in its frame slot and is updated in source order) and
/// optimized — and both builds run under their debuggers with a breakpoint
/// on every statement; the reference's run is recorded once and replayed
/// against every optimized build.  At each paired stop the oracle records,
/// for every in-scope variable, the *expected* value (unoptimized
/// semantics) next to everything the optimized debugger claims: its
/// Figure-1 verdict, the value it would display, and what the debug
/// tables say about residence.
///
/// DiffCheck.h consumes these observations and asserts the soundness
/// contract; this header is only about faithfully collecting them.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FUZZ_ORACLE_H
#define SLDB_FUZZ_ORACLE_H

#include "core/Debugger.h"
#include "eval/Compile.h"
#include "eval/Levels.h"

#include <optional>
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

  /// The O2nl level's pass set (eval/Levels.h).
  static OptOptions lockstepOpts() {
    return levelSpec(PipelineLevel::O2nl).Opts;
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

  /// The optimized build's variable names, indexed by VarId: one copy
  /// per run, so a report's variable can be named (DiffCheck's
  /// violations) after the builds are gone.
  std::vector<std::string> VarNames;

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

/// The reference build's debugging session, recorded once per program
/// and replayed against every optimized build judged with the same fuel
/// and stop cap (both promote modes of a diff seed, every judged level
/// of a cross-level seed).  The reference (unoptimized and unpromoted:
/// every variable lives in its frame slot and is updated in source
/// order) runs under a Debugger breaking on every statement, with the
/// FaultInjector suspended throughout: an armed fault may only corrupt
/// the build it is aimed at, never the ground truth.  Per stop the
/// recording keeps the function, the statement (InvalidStmt when none
/// starts at the PC), and at a statement its scope reports with each
/// variable's all-paths initialization bit; then the end state.
///
/// It holds what runLockstep can read under the stop cap: the stops a
/// pairing reaches (at most MaxStops * 4 + 64, oracle-only stops
/// included), and the end state after the drain of at most
/// DrainResumes resumes that follows the pairing, wherever it stopped.
/// Bumps `lockstep.reference_runs` once per recording.
class ReferenceRecording {
public:
  /// The drain bound: after the pairing, each build resumes at most this
  /// often before its end state is taken.
  static constexpr std::size_t DrainResumes = 200000;

  /// One breakpoint stop of the reference.
  struct Stop {
    FuncId Func = InvalidFunc;
    StmtId Stmt = InvalidStmt;
    /// The stop's scope reports are reports()[FirstReport, +NumReports).
    std::uint32_t FirstReport = 0, NumReports = 0;
  };

  /// Records \p Ref's session with execution fuel \p Fuel for runs of at
  /// most \p MaxStops paired stops.  \p Ref must outlive the recording.
  ReferenceRecording(const MachineModule &Ref, std::uint64_t Fuel,
                     unsigned MaxStops);

  /// Whether the recording serves runs with \p O's fuel and stop cap.
  bool serves(const LockstepOptions &O) const {
    return O.Fuel == Fuel && O.MaxStops == MaxStops;
  }

  const MachineModule &module() const { return Ref; }

  /// Whether the reference is stopped at a breakpoint after \p K
  /// resumes; stop(K) is then its stop, for every K a pairing reads.
  bool atBreakpoint(std::size_t K) const { return !Ended || K < NumStops; }
  const Stop &stop(std::size_t K) const { return Stops[K]; }

  /// Every recorded scope report, and whether every path of the
  /// reference to its stop initializes the report's variable.
  const std::vector<VarReport> &reports() const { return Reports; }
  bool initAllPaths(std::size_t Report) const { return InitAllPaths[Report]; }

  /// The reference's end state, exit value and output once a pairing
  /// that left it at stop \p K has drained it.
  void end(std::size_t K, LockstepResult &R) const;

private:
  /// The reference's exit value and output length at one stop.
  struct Cut {
    std::size_t OutputBytes = 0;
    std::int64_t Exit = 0;
  };

  const MachineModule &Ref;
  std::uint64_t Fuel;
  unsigned MaxStops;
  std::vector<Stop> Stops;
  std::vector<VarReport> Reports;
  std::vector<bool> InitAllPaths;
  /// Cuts[K]: the state at stop K + DrainResumes, where a drain from
  /// stop K ends while the run goes on past it.
  std::vector<Cut> Cuts;
  /// Whether the run left its breakpoints within the recording, after
  /// NumStops stops, in state EndState.  Otherwise EndExit and Output
  /// are those of its last recorded stop.
  bool Ended = false;
  std::size_t NumStops = 0;
  StopReason EndState = StopReason::Running;
  std::int64_t EndExit = 0;
  std::string Output;
};

/// What a lockstep oracle compares: the reference's recorded session and
/// the optimized build under test, unscheduled, with the optimized IR it
/// was lowered from.  Borrowed: one recording and one optimized IR serve
/// every codegen mode a program is judged in.
struct LockstepBuilds {
  const ReferenceRecording &Ref;
  const MachineModule &Opt;
  const IRModule &OptIR;
};

/// One program compiled for lockstep judging in any number of codegen
/// modes.  The frontend and IRGen run once; their unoptimized IR is
/// lowered as the reference with the FaultInjector suspended, then
/// optimized once (eval/Compile.h compileWithReference), and each mode
/// lowers the one optimized IR (a lowering equals a fresh compile in its
/// mode).  The reference's session is recorded on the first lockstep run
/// and serves every later run with the same fuel and stop cap.  The
/// differential and stepping oracles build their modules only through
/// this class (tools/check_no_direct_analyses.sh); the cross-level
/// oracle judges the builds its sweep already made.
class SharedBuilds {
public:
  /// Compiles \p Src at \p Opts, recording the pipeline's per-slot
  /// firing counts when \p Instrument, and the reference.
  SharedBuilds(std::string_view Src, const OptOptions &Opts,
               bool Instrument = false);
  /// Pinned: the recording refers to the reference build held here.
  SharedBuilds(const SharedBuilds &) = delete;
  SharedBuilds &operator=(const SharedBuilds &) = delete;

  /// Lowers the optimized IR for one mode.  The error is the first in
  /// a per-mode compile's order: the optimized build's own (frontend,
  /// optimizer, lowering), then the reference's, prefixed
  /// "oracle build: ".
  Expected<MachineModule> lower(bool Promote) const;

  /// The reference build, once lower() has succeeded.
  const MachineModule &reference() const { return Built.Ref.value(); }

  /// The reference's session for runs with \p O's fuel and stop cap,
  /// recorded on first use (once lower() has succeeded).  Not
  /// thread-safe: a SharedBuilds serves one thread.
  const ReferenceRecording &recording(const LockstepOptions &O) const;

  /// The builds of a mode that lower() returned, for runs with \p O.
  LockstepBuilds builds(const MachineModule &Opt,
                        const LockstepOptions &O) const {
    return {recording(O), Opt, *Built.OptIR.value()};
  }

  /// The pipeline's firing counts (empty unless instrumented).
  const std::vector<PassFiring> &firings() const { return Firings; }

private:
  std::vector<PassFiring> Firings; ///< Filled while Built compiles.
  IRWithReference Built;
  mutable std::optional<ReferenceRecording> Recorded;
};

/// Runs one mode's optimized build in lockstep with the reference's
/// recording, recording one StopObservation per paired stop, and the
/// builds' machine-level evidence.  O.Opts and O.InstrumentPasses are
/// not read (the builds are already compiled); the recording must serve
/// O (a mismatch is the result's PairError).  Never asserts: all
/// findings are in the result for DiffCheck to judge.
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
