//===- fuzz/Campaign.h - Differential fuzzing campaigns ---------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives whole fuzzing campaigns: generate N seeded programs, run each
/// through the lockstep oracle in both codegen configurations (variables
/// promoted to registers / kept in frame slots, both lowered from one
/// optimizer run), judge every run with the soundness checker, aggregate
/// optimization coverage, and turn any violation into a minimized
/// on-disk reproducer.  Both `tools/sldb-fuzz` and the tier-1
/// `fuzz_diff_test` are thin wrappers around this.
///
/// Every campaign (this file's differential and fault-injection ones, and
/// QualityCampaign.h's stepping and cross-level ones) runs on one engine
/// (fuzz/CampaignEngine.h) and shares the config and result fields below.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FUZZ_CAMPAIGN_H
#define SLDB_FUZZ_CAMPAIGN_H

#include "fuzz/DiffCheck.h"
#include "fuzz/ProgramGen.h"
#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sldb {

/// Parameters every campaign takes.  Every build runs on the oracle
/// options' default fuel (LockstepOptions::Fuel, 50M VM steps).
struct CampaignBaseConfig {
  std::uint32_t Seed = 1;  ///< First seed; program i uses Seed + i.
  unsigned Count = 200;    ///< Number of generated programs.
  GenOptions Gen;

  /// Shrink each failing program to a minimal reproducer (greedy
  /// statement deletion preserving the violation kind).
  bool Shrink = true;

  /// Write reproducers (source + violation report) into FailureDir.
  bool WriteFailures = false;
  std::string FailureDir = "fuzz-failures";

  /// Worker threads fanning the campaign's units across a work-stealing
  /// pool (support/ThreadPool.h).  0 means all hardware cores.  The
  /// report is byte-identical for every value: unit results land in
  /// index-keyed slots and are merged in seed-major order after the pool
  /// drains.
  unsigned Jobs = 1;

  /// Distributed campaigns (`--shard i/k`): run only the i-th of k
  /// contiguous slices of the seed range.  Concatenating the k shard
  /// reports in shard order reproduces the unsharded campaign.
  unsigned ShardIndex = 0;
  unsigned ShardCount = 1;

  /// Capture each unit's trace events (support/Trace.h) and merge them
  /// into the result's Trace in seed-major unit order with the unit
  /// ordinal as the tid — the merged event *sequence* is identical for
  /// every Jobs value (timestamps remain wall clock).  Only effective
  /// while Trace::enabled(); isolated (forked) units lose their events
  /// to the fork, like the coverage stats.
  bool CollectTrace = false;
};

/// Differential campaign parameters.
struct CampaignConfig : CampaignBaseConfig {
  /// Run each program twice: PromoteVars on (Figure 5(b)) and off
  /// (Figure 5(a)).  Off still exercises hoist/dead reach, on adds the
  /// residence tables.
  bool BothPromoteModes = true;

  /// Codegen configuration for single-mode campaigns (ignored when
  /// BothPromoteModes is set).
  bool Promote = true;

  /// Non-empty: run the whole campaign at this named pipeline level
  /// (eval/Levels.h) instead of the default lockstep set — one mode,
  /// with the level's own pass selection and promotion.  The name must
  /// resolve via findLevel() and the level must be judgeable(); the
  /// campaign refuses with a ConfigError otherwise.
  std::string Level;

  /// Run every (seed, mode) check in a forked child under a wall-clock
  /// watchdog (fuzz/Isolation.h), one child per mode: a seed that
  /// crashes or hangs the compiler is recorded, reduced, and archived
  /// (into `fuzz-crashes`) instead of killing the campaign.  Trades the in-process coverage
  /// accounting (stops / observations / pass firings) of passing runs
  /// for containment.  Composes with Jobs: each worker forks its own
  /// watchdogged child.
  bool Isolate = false;
  unsigned TimeoutMs = 20'000; ///< Watchdog budget per isolated run.
};

/// One failing program.
struct CampaignFailure {
  std::uint32_t Seed = 0;
  bool Promote = true;
  std::string Source;  ///< Generated program.
  std::string Reduced; ///< Minimized reproducer (empty if not shrunk).
  std::vector<Violation> Violations;
  std::string Path;    ///< Written reproducer path (when writing).

  /// Process-level outcome ("crash (signal 11)", "timeout") for seeds
  /// caught by the isolation layer; empty for in-process soundness
  /// failures.
  std::string ProcessOutcome;

  /// Fault point armed for the run (inject campaigns; empty otherwise).
  std::string FaultName;

  /// Pipeline level of the run (level and cross-level campaigns; empty
  /// for the default lockstep configuration).
  std::string Level;

  /// Oracle that found it ("diff", "inject", "step" or "crosslevel");
  /// the reproducer's command re-judges under the same oracle.
  std::string Oracle;

  /// Generated with GenOptions::Alias (inject reproducers regenerate the
  /// program from its seed, so they must ask for the same grammar).
  bool Alias = false;
};

/// How much of the optimizer the corpus actually exercised.
struct CampaignCoverage {
  /// Programs whose optimized build contains machine-level evidence of
  /// each endangering transformation.
  unsigned WithHoisted = 0;    ///< IsHoisted instructions (PRE/LICM).
  unsigned WithSunk = 0;       ///< IsSunk instructions (PDE).
  unsigned WithDeadMarks = 0;  ///< MDEAD markers (DCE/PDE eliminations).
  unsigned WithAvailMarks = 0; ///< MAVAIL markers (PRE originals).
  unsigned WithSRRecords = 0;  ///< IV strength-reduction recoveries.

  /// Per-pipeline-slot firing counts summed over all programs (slot
  /// order and names follow the pipeline).
  std::vector<PassFiring> Firings;

  /// Total times a pass with the given name fired, across all slots.
  unsigned fired(const std::string &PassName) const;

  /// Adds another corpus's counts slot by slot.
  void add(const CampaignCoverage &O);
};

/// Per-worker campaign statistics (diagnostic only — wall-clock based
/// and therefore nondeterministic; never part of the campaign report).
struct CampaignWorkerStats {
  unsigned Worker = 0;
  unsigned Units = 0;         ///< Units run: seeds (every mode of one
                              ///< program), or (seed, fault-point)
                              ///< pairs for --inject.
  unsigned Steals = 0;        ///< Units taken from a sibling's queue.
  unsigned InitialQueue = 0;  ///< Starting queue depth.
  std::uint64_t BusyUs = 0;
  std::uint32_t SlowestSeed = 0; ///< Seed of the slowest unit.
  std::uint64_t SlowestUs = 0;

  double unitsPerSec() const {
    return BusyUs ? 1e6 * static_cast<double>(Units) / BusyUs : 0.0;
  }
};

/// Outcome fields every campaign reports.
struct CampaignBaseResult {
  unsigned Programs = 0; ///< Seeds with at least one unit run.
  std::vector<CampaignFailure> Failures;

  /// Non-empty when the campaign refused to run (seed-range overflow,
  /// bad shard spec, unknown or unjudgeable level).  Nothing else in the
  /// result is meaningful then.
  std::string ConfigError;

  /// Units fast-drained because an interrupt (SIGINT/SIGTERM, see
  /// support/Interrupt.h) arrived mid-campaign.  Nonzero marks the
  /// report as *partial*: aggregates cover only the units that ran, and
  /// the driver still flushes every reproducer collected so far.
  unsigned SkippedUnits = 0;

  /// One entry per pool worker (diagnostic; see CampaignWorkerStats).
  std::vector<CampaignWorkerStats> Workers;

  /// Captured trace events in seed-major unit order (CollectTrace);
  /// tid = 1-based unit ordinal.
  std::vector<TraceEvent> Trace;
};

/// Aggregate differential-campaign outcome.
struct CampaignResult : CampaignBaseResult {
  unsigned Runs = 0;          ///< Lockstep executions (<= 2x programs).
  unsigned FailedCompiles = 0;///< Generator bugs: must stay zero.
  std::uint64_t Stops = 0;    ///< Paired statement-boundary stops.
  std::uint64_t Observations = 0; ///< Variable observations judged.
  CampaignCoverage Coverage;

  bool sound() const {
    return Failures.empty() && FailedCompiles == 0 && ConfigError.empty();
  }
};

/// Runs a campaign.
CampaignResult runCampaign(const CampaignConfig &C);

/// Deterministic report of a differential campaign, as sldb-fuzz prints
/// it: run and coverage totals, per-pass firings, then the verdict and
/// one line per failure.
std::string renderCampaignReport(const CampaignResult &R);

/// Fault-injection campaign parameters (`sldb-fuzz --inject`): every
/// seed is checked once per *defended* FaultInjector point, with the
/// fault armed for the optimized build only (the oracle build compiles
/// with injection suspended).  The contract under injection is weaker
/// than the clean campaign's — conservative degradation, compile errors,
/// and behavioral divergence from an injected VM trap are all acceptable
/// — but process crashes, hangs, and the three *unsound* violation kinds
/// (UnsoundCurrent, WrongRecovery, MissedUninitialized) never are.
/// Units are (seed, fault-point) pairs; every record (crash, hang or
/// unsound run) is written to FailureDir, `fuzz-crashes` by default.
struct InjectCampaignConfig : CampaignBaseConfig {
  InjectCampaignConfig() { FailureDir = "fuzz-crashes"; }

  bool Promote = true;      ///< Codegen configuration for the runs.

  /// Non-empty: arm every fault under this named pipeline level instead
  /// of the default lockstep set (CampaignConfig::Level contract — must
  /// resolve and be judgeable, with the level's own promotion).
  std::string Level;

  bool Isolate = true;      ///< Fork + watchdog per run (the default).
  unsigned TimeoutMs = 20'000;
};

/// Aggregate inject-campaign outcome.
struct InjectCampaignResult : CampaignBaseResult {
  unsigned Runs = 0;           ///< seed x fault-point checks executed.
  unsigned CompileErrors = 0;  ///< Runs refused by the hardened pipeline.
  unsigned DegradedRuns = 0;   ///< Runs with only conservative findings.
  unsigned Crashes = 0;        ///< Child processes killed by a signal.
  unsigned Hangs = 0;          ///< Watchdog expirations.
  unsigned UnsoundRuns = 0;    ///< Runs with an unsound violation.

  /// The acceptance bar: no crash, no hang, no unsound verdict under
  /// any injected fault.
  bool sound() const {
    return Crashes == 0 && Hangs == 0 && UnsoundRuns == 0 &&
           ConfigError.empty();
  }
};

/// Runs the fault-injection campaign over all defended fault points.
InjectCampaignResult runInjectCampaign(const InjectCampaignConfig &C);

/// Deterministic report of an inject campaign; \p Isolated names how the
/// runs were executed.
std::string renderInjectCampaignReport(const InjectCampaignResult &R,
                                       bool Isolated);

/// True for the violation kinds that remain failures under fault
/// injection (a conservative or divergent finding is the degradation
/// working as designed; these three are the debugger lying).
bool isUnsoundViolation(ViolationKind K);

/// Judges one program in one configuration (used by the reproducer mode
/// of sldb-fuzz and by the shrinker's predicate).  \p Opts overrides the
/// optimized build's pass selection (level campaigns); null keeps the
/// default lockstep set.
std::vector<Violation> checkProgram(const std::string &Src, bool Promote,
                                    unsigned MaxStops = 4000,
                                    const OptOptions *Opts = nullptr);

/// Renders a failure as the on-disk reproducer format: the violation
/// report as comments, the command that re-judges it under its oracle,
/// then the (reduced, when available) source.
std::string renderFailure(const CampaignFailure &F);

} // namespace sldb

#endif // SLDB_FUZZ_CAMPAIGN_H
