//===- fuzz/CampaignEngine.h - The shared campaign engine -------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one engine under every fuzz campaign (differential, fault
/// injection, stepping, cross-level).  An oracle supplies three things:
/// how many units each seed has, how to run one unit, and how a finished
/// unit folds into its result.  The engine owns everything else.
///
/// Parallel execution model: units are numbered in canonical seed-major
/// order and fanned across a work-stealing ThreadPool.  Every unit writes
/// its outcome into the slot of its index; after the pool drains, a
/// single-threaded merge walks the slots *in that order* to build the
/// result.  The report is therefore byte-identical for any --jobs value
/// (including 1, which runs inline without threads): scheduling can only
/// change *when* a slot is filled, never what the merge reads from it.
///
/// Thread confinement: a unit does everything on one worker thread —
/// generate, arm its fault (FaultInjector state is thread_local),
/// compile, run, judge, shrink — so no unit can observe another's armed
/// fault or PRNG stream.  Reproducer files are written by the merge, not
/// the workers, so filename dedup needs no locking.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FUZZ_CAMPAIGNENGINE_H
#define SLDB_FUZZ_CAMPAIGNENGINE_H

#include "fuzz/Campaign.h"
#include "support/Interrupt.h"
#include "support/Sharder.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <functional>
#include <set>

namespace sldb {

struct LevelSpec;

/// The engine's part of every unit outcome; oracles derive from it.
struct UnitOutcome {
  bool Skipped = false;                  ///< Fast-drained after an interrupt.
  std::vector<TraceEvent> Trace;         ///< Unit-local capture.
  std::vector<CampaignFailure> Failures; ///< Written and kept by the merge.
};

/// What an oracle tells the engine besides its unit and fold functions.
struct OraclePlan {
  const char *Name = "";     ///< Recorded as CampaignFailure::Oracle.
  unsigned UnitsPerSeed = 1;
  const char *CrashDir = ""; ///< Crash/hang records' directory if not
                             ///< FailureDir.
};

/// One oracle's judgment of a program: its violations, in order.
using ProgramCheck = std::function<std::vector<Violation>(const std::string &)>;

/// Validates the shared fields: the seed range must not wrap past 2^32-1
/// and the shard spec must be in range.  A non-empty \p Level must name a
/// judgeable level.  Returns that level (null without one); on error sets
/// \p Error and returns null.
const LevelSpec *checkConfig(const CampaignBaseConfig &C,
                             const std::string &Level, std::string &Error);

/// The judgeable pipeline level named \p Name; null with \p Error set
/// when there is none.
const LevelSpec *judgeableLevel(const std::string &Name, std::string &Error);

/// The promote modes a differential or stepping unit judges, in fold
/// order: a level's own mode with \p Level, else promote then frame when
/// \p Both, else \p Promote alone.
std::vector<bool> promoteModes(const LevelSpec *Level, bool Both,
                               bool Promote);

/// The violation a check reports for a program that does not compile,
/// and its recognizer.
Violation notCompiled(const std::string &Error);
bool compiles(const std::vector<Violation> &Vs);

/// A failure record.  With \p Shrink, Reduced is the smallest variant on
/// which \p Check still compiles and reports a violation of the first
/// violation's kind (statement ids may move under the shrinker).
CampaignFailure makeFailure(std::uint32_t Seed, bool Promote,
                            const std::string &Src, const std::string &Level,
                            std::vector<Violation> Vs, bool Shrink = false,
                            const ProgramCheck &Check = nullptr);

/// The record of a generated program that does not compile (a
/// generator bug).
CampaignFailure compileFailure(std::uint32_t Seed, bool Promote,
                               const std::string &Src,
                               const std::string &Level,
                               const std::string &Error);

/// The closing lines of a report: \p Ok when \p Sound, else \p Fail and
/// one line per failure (`seed N <Head(F)>`) with its reproducer path.
std::string
renderVerdict(const CampaignBaseResult &R, bool Sound, const std::string &Ok,
              const std::string &Fail,
              const std::function<std::string(const CampaignFailure &)> &Head);

/// The `(promote-vars on|off): <first violation>` failure head.
std::string promoteHead(const CampaignFailure &F);

/// Pool stats as campaign worker stats, each worker's slowest unit
/// resolved to its seed.
std::vector<CampaignWorkerStats>
toCampaignStats(const std::vector<WorkerStats> &WS,
                const std::function<std::uint32_t(std::size_t)> &SeedOfUnit);

/// Writes \p F's reproducer into \p Dir as `seed-N[-fault][-level]-
/// promote|frame.minic`; a numeric suffix keeps a second record with the
/// same stem instead of clobbering the first.  Returns the path.
std::string writeReproducer(const CampaignFailure &F, const std::string &Dir,
                            std::set<std::string> &UsedPaths);

/// Runs the units of a validated campaign and merges them into \p R.
/// \p Run(Seed, K) produces unit K of a seed on a pool worker.  \p Fold
/// adds a finished unit to the oracle's counters on the merge thread, in
/// unit order.  The engine counts programs and skipped units, rebases
/// each unit's trace to tid = unit ordinal, and keeps (and writes) every
/// failure.
template <class Outcome, class RunFn, class FoldFn>
void runUnits(const CampaignBaseConfig &C, CampaignBaseResult &R,
              const OraclePlan &Plan, RunFn Run, FoldFn Fold) {
  const ShardRange Shard =
      Sharder::slice(C.Count, C.ShardIndex, C.ShardCount);
  const unsigned PerSeed = Plan.UnitsPerSeed;
  auto SeedOfUnit = [&](std::size_t U) {
    return static_cast<std::uint32_t>(C.Seed + Shard.Begin + U / PerSeed);
  };

  std::vector<Outcome> Out(Shard.size() * PerSeed);
  ThreadPool Pool(C.Jobs ? C.Jobs : ThreadPool::hardwareJobs());
  std::vector<WorkerStats> WS =
      Pool.parallelFor(Out.size(), [&](std::size_t U, unsigned) {
        // Interrupt fast-drain: remaining units become no-ops so the
        // pool empties quickly and the merge below still flushes every
        // finished unit's reproducers (partial report, nothing lost).
        if (interruptRequested()) {
          Out[U].Skipped = true;
          return;
        }
        static StatCounter &Units = Stats::counter("campaign.units");
        Units.add();
        const std::uint32_t Seed = SeedOfUnit(U);
        const unsigned K = static_cast<unsigned>(U % PerSeed);
        if (!C.CollectTrace) {
          Out[U] = Run(Seed, K);
          return;
        }
        // Divert the worker's events for the unit's duration so the
        // merge can rebuild a deterministic, seed-major trace whatever
        // the pool's scheduling was.  The span covers the whole unit: for
        // the diff and step oracles, one seed in every mode.
        TraceCapture Cap;
        {
          TraceSpan Span("campaign.unit", "campaign");
          Span.arg("seed", static_cast<std::uint64_t>(Seed));
          Out[U] = Run(Seed, K);
        }
        Out[U].Trace = Cap.take();
      });
  R.Workers = toCampaignStats(WS, SeedOfUnit);

  std::set<std::string> UsedPaths;
  for (std::size_t First = 0; First < Out.size(); First += PerSeed) {
    bool SeedRan = false;
    for (std::size_t U = First; U < First + PerSeed; ++U)
      SeedRan |= !Out[U].Skipped;
    R.Programs += SeedRan;
    for (std::size_t U = First; U < First + PerSeed; ++U) {
      Outcome &O = Out[U];
      if (O.Skipped) {
        ++R.SkippedUnits;
        continue;
      }
      for (TraceEvent &E : O.Trace) {
        E.Tid = static_cast<std::uint32_t>(U + 1);
        R.Trace.push_back(std::move(E));
      }
      Fold(O);
      for (CampaignFailure &F : O.Failures) {
        F.Oracle = Plan.Name;
        F.Alias = C.Gen.Alias;
        if (C.WriteFailures)
          F.Path = writeReproducer(
              F,
              F.ProcessOutcome.empty() || !*Plan.CrashDir ? C.FailureDir
                                                          : Plan.CrashDir,
              UsedPaths);
        R.Failures.push_back(std::move(F));
      }
    }
  }
}

} // namespace sldb

#endif // SLDB_FUZZ_CAMPAIGNENGINE_H
