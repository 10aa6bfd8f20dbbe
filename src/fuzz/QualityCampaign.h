//===- fuzz/QualityCampaign.h - Stepping & cross-level campaigns -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two quality-oracle campaigns layered on the differential fuzzing
/// infrastructure (`sldb-fuzz --oracle=step|crosslevel`):
///
///  * Stepping campaign — every seed through the stepping/line-table
///    oracle (fuzz/StepOracle.h) in both promote modes (both lowered
///    from one optimizer run), judging phantom and vanished statement
///    boundaries.
///
///  * Cross-level campaign — every seed swept across the whole pipeline
///    lattice (eval/CrossLevel.h), plus a lockstep ground-truth run at
///    every *judgeable* level on the sweep's own builds (its O0 row is
///    the reference).  The lockstep runs serve three purposes:
///    soundness at every level (not just the default heaviest pipeline),
///    dynamic judgment of the sweep's availability-regression candidates
///    (a candidate whose More level the oracle proves sound is
///    *explained*; one where the oracle finds the shown value wrong is
///    *unexplained* — the tier-1 failure), and the measured conservatism
///    rate per level (Measure.h ConservatismCounts).
///
/// Both run on the campaign engine (fuzz/CampaignEngine.h) with its
/// determinism contract: reports are byte-identical for any --jobs value.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FUZZ_QUALITYCAMPAIGN_H
#define SLDB_FUZZ_QUALITYCAMPAIGN_H

#include "eval/CrossLevel.h"
#include "fuzz/Campaign.h"
#include "fuzz/StepOracle.h"

#include <string>
#include <vector>

namespace sldb {

//===----------------------------------------------------------------------===//
// Stepping campaign
//===----------------------------------------------------------------------===//

/// Stepping campaign parameters.  Each run steps at most 20000
/// statement-boundary events per build (StepOracleOptions::MaxEvents).
struct StepCampaignConfig : CampaignBaseConfig {
  /// Run each program twice (promote / frame), as the diff campaign.
  bool BothPromoteModes = true;
  bool Promote = true; ///< Mode for single-mode campaigns.

  /// Non-empty: run at this named pipeline level (CampaignConfig::Level
  /// contract — must resolve and be judgeable, one mode, the level's
  /// own promotion).
  std::string Level;
};

struct StepCampaignResult : CampaignBaseResult {
  unsigned Runs = 0;           ///< Stepping executions (<= 2x programs).
  unsigned FailedCompiles = 0; ///< Generator bugs: must stay zero.
  unsigned CappedRuns = 0;     ///< Runs exempted from the multiset checks.
  std::uint64_t StmtsChecked = 0; ///< Visit rows judged.

  bool sound() const {
    return Failures.empty() && FailedCompiles == 0 && ConfigError.empty();
  }
};

StepCampaignResult runStepCampaign(const StepCampaignConfig &C);

/// Judges one program's stepping in one mode (reproducer mode and the
/// shrinker's predicate).  \p Opts overrides the optimized build's pass
/// selection (level campaigns); null keeps the default lockstep set.
std::vector<Violation> checkStepProgram(const std::string &Src, bool Promote,
                                        unsigned MaxEvents = 20000,
                                        const OptOptions *Opts = nullptr);

/// Deterministic campaign report: run totals, then the verdict and one
/// line per failure.
std::string renderStepCampaignReport(const StepCampaignResult &R);

//===----------------------------------------------------------------------===//
// Cross-level campaign
//===----------------------------------------------------------------------===//

/// A sweep candidate with its dynamic verdict.
struct JudgedRegression {
  enum class Judgment : std::uint8_t {
    Explained,  ///< Lockstep proved the More level sound at this point.
    Unexplained,///< Lockstep found the More level unsound here: FAIL.
    Unjudged    ///< More level not judgeable (peel/unroll): static only.
  };
  AvailRegression R;
  Judgment J = Judgment::Unjudged;
};

const char *judgmentName(JudgedRegression::Judgment J);

/// Cross-level campaign parameters: one unit per seed, with a lockstep
/// run of at most 1000 paired stops at every judgeable level.
struct CrossLevelCampaignConfig : CampaignBaseConfig {};

struct CrossLevelCampaignResult : CampaignBaseResult {
  unsigned CompileErrors = 0; ///< Generator bugs: must stay zero.
  unsigned LockstepRuns = 0;  ///< Judgeable-level ground-truth runs.
  unsigned UnsoundRuns = 0;   ///< Runs with any soundness violation.
  unsigned Unexplained = 0;   ///< Regressions the oracle could not excuse.

  /// Per-level counts summed over the corpus (all levels / judgeable
  /// levels, both in pipelineLevels() order).
  std::vector<CoverageCounts> Levels;
  std::vector<ConservatismCounts> Conservatism;

  /// All candidates with judgments, in (seed, point) order.
  std::vector<JudgedRegression> Regressions;

  bool sound() const {
    return Unexplained == 0 && UnsoundRuns == 0 && CompileErrors == 0 &&
           ConfigError.empty();
  }
};

CrossLevelCampaignResult
runCrossLevelCampaign(const CrossLevelCampaignConfig &C);

/// Deterministic campaign report: the level quality table, the
/// conservatism table, one judged line per regression candidate, then
/// the verdict and one line per unsound run.
std::string
renderCrossLevelCampaignReport(const CrossLevelCampaignResult &R);

} // namespace sldb

#endif // SLDB_FUZZ_QUALITYCAMPAIGN_H
