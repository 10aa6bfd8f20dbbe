//===- fuzz/QualityCampaign.cpp -------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The stepping and cross-level oracles on the campaign engine
// (fuzz/CampaignEngine.h): both units are one seed.  The stepping unit
// judges every promote mode from one SharedBuilds and one walk of its
// reference; the cross-level unit judges the sweep's own builds.
//
//===----------------------------------------------------------------------===//

#include "fuzz/QualityCampaign.h"

#include "eval/Levels.h"
#include "fuzz/CampaignEngine.h"

using namespace sldb;

//===----------------------------------------------------------------------===//
// Stepping campaign
//===----------------------------------------------------------------------===//

std::vector<Violation> sldb::checkStepProgram(const std::string &Src,
                                              bool Promote,
                                              unsigned MaxEvents,
                                              const OptOptions *Opts) {
  StepOracleOptions O;
  if (Opts)
    O.Opts = *Opts;
  O.Promote = Promote;
  O.MaxEvents = MaxEvents;
  StepResult R = runStepLockstep(Src, O);
  return R.Compiled ? checkStepping(R)
                    : std::vector<Violation>{notCompiled(R.CompileError)};
}

namespace {

/// One seed's stepping outcome: its runs, one per mode in fold order, up
/// to and including the first that failed to compile.
struct StepOutcome : UnitOutcome {
  unsigned Runs = 0;
  bool CompileFail = false;
  unsigned Capped = 0;
  std::uint64_t Stmts = 0;
};

StepOutcome runStepUnit(const StepCampaignConfig &C, std::uint32_t Seed,
                        const std::vector<bool> &Modes,
                        const OptOptions &Opts) {
  static StatHistogram &VisitRows = Stats::histogram("step.visit_rows");
  StepOutcome O;
  std::string Src = generateProgram(Seed, C.Gen);
  SharedBuilds Builds(Src, Opts);
  std::optional<StepWalk> RefWalk;
  for (bool Promote : Modes) {
    ++O.Runs;
    StepOracleOptions SO;
    SO.Promote = Promote;
    StepResult R = runStepLockstep(Builds, SO, RefWalk);
    if (!R.Compiled) {
      O.CompileFail = true;
      O.Failures.push_back(
          compileFailure(Seed, Promote, Src, C.Level, R.CompileError));
      break;
    }
    O.Capped += R.Capped;
    O.Stmts += R.Visits.size();
    VisitRows.record(R.Visits.size());

    std::vector<Violation> Vs = checkStepping(R);
    if (!Vs.empty())
      O.Failures.push_back(makeFailure(
          Seed, Promote, Src, C.Level, std::move(Vs), C.Shrink,
          [&](const std::string &S) {
            return checkStepProgram(S, Promote, SO.MaxEvents, &Opts);
          }));
  }
  return O;
}

} // namespace

StepCampaignResult sldb::runStepCampaign(const StepCampaignConfig &C) {
  StepCampaignResult R;
  const LevelSpec *Spec = checkConfig(C, C.Level, R.ConfigError);
  if (!R.ConfigError.empty())
    return R;

  // Level campaigns collapse to one mode with the level's own settings.
  const std::vector<bool> Modes =
      promoteModes(Spec, C.BothPromoteModes, C.Promote);
  const OptOptions Opts = Spec ? Spec->Opts : LockstepOptions::lockstepOpts();
  runUnits<StepOutcome>(
      C, R, {"step"},
      [&](std::uint32_t Seed, unsigned) {
        return runStepUnit(C, Seed, Modes, Opts);
      },
      [&](StepOutcome &O) {
        R.Runs += O.Runs;
        R.FailedCompiles += O.CompileFail;
        R.CappedRuns += O.Capped;
        R.StmtsChecked += O.Stmts;
      });
  return R;
}

std::string sldb::renderStepCampaignReport(const StepCampaignResult &R) {
  if (!R.ConfigError.empty())
    return "config error: " + R.ConfigError + "\n";
  std::string S;
  S += "programs:       " + std::to_string(R.Programs) + "\n";
  S += "stepping runs:  " + std::to_string(R.Runs) + "\n";
  S += "stmts checked:  " + std::to_string(R.StmtsChecked) + "\n";
  S += "capped runs:    " + std::to_string(R.CappedRuns) + "\n";
  S += "failed compiles:" + std::string(" ") +
       std::to_string(R.FailedCompiles) + "\n";
  S += "failures:       " + std::to_string(R.Failures.size()) + "\n";
  return S + renderVerdict(R, R.sound(),
                           "stepping:       OK (no phantom or vanished "
                           "statement boundaries, behavior matched)",
                           "stepping:       " +
                               std::to_string(R.Failures.size()) +
                               " FAILING run(s)",
                           promoteHead);
}

//===----------------------------------------------------------------------===//
// Cross-level campaign
//===----------------------------------------------------------------------===//

const char *sldb::judgmentName(JudgedRegression::Judgment J) {
  switch (J) {
  case JudgedRegression::Judgment::Explained:
    return "explained";
  case JudgedRegression::Judgment::Unexplained:
    return "UNEXPLAINED";
  case JudgedRegression::Judgment::Unjudged:
    return "unjudged";
  }
  return "?";
}

namespace {

/// Accumulates one lockstep run's observations into a level's measured
/// conservatism.  Only observations with a trustworthy expected value
/// participate; verdicts already shown via recovery are not
/// conservative — the debugger displayed the value.
void accumulateConservatism(ConservatismCounts &CC,
                            const LockstepResult &LR) {
  for (const StopObservation &Stop : LR.Stops)
    for (const VarObservation &V : Stop.Vars) {
      const VarReport &E = V.Expected;
      if (!E.HasValue || E.Class.Kind == VarClass::Uninitialized)
        continue;
      if (V.Opt.Class.Recoverable)
        continue;
      auto Matches = [&](bool IsD, std::int64_t I, double D) {
        if (IsD != E.IsDouble)
          return false;
        return IsD ? D == E.DoubleValue : I == E.IntValue;
      };
      switch (V.Opt.Class.Kind) {
      case VarClass::Noncurrent:
        ++CC.Noncurrent;
        if (V.Opt.HasValue &&
            Matches(V.Opt.IsDouble, V.Opt.IntValue, V.Opt.DoubleValue))
          ++CC.NoncurrentMatched;
        break;
      case VarClass::Suspect:
        ++CC.Suspect;
        if (V.Opt.HasValue &&
            Matches(V.Opt.IsDouble, V.Opt.IntValue, V.Opt.DoubleValue))
          ++CC.SuspectMatched;
        break;
      case VarClass::Nonresident:
        // The verdict displays nothing; the *raw* storage home is the
        // what-if: would a naive debugger have printed the right value?
        ++CC.Nonresident;
        if (V.RawValid && Matches(V.RawIsDouble, V.RawInt, V.RawDouble))
          ++CC.NonresidentMatched;
        break;
      default:
        break;
      }
    }
}

/// The cross-level oracle's lockstep runs stop after this many paired
/// stops (the report's conservatism counts depend on it).
constexpr unsigned CrossLevelMaxStops = 1000;

/// One seed's cross-level unit outcome.
struct XLOutcome : UnitOutcome {
  bool CompileFail = false;
  unsigned LockstepRuns = 0;
  unsigned UnsoundRuns = 0;
  std::vector<CoverageCounts> Levels;         ///< All levels.
  std::vector<ConservatismCounts> Cons;       ///< Judgeable levels.
  std::vector<JudgedRegression> Regs;
};

XLOutcome runXLUnit(const CrossLevelCampaignConfig &C, std::uint32_t Seed) {
  static StatHistogram &Candidates =
      Stats::histogram("crosslevel.candidates");
  static StatHistogram &Conservative =
      Stats::histogram("crosslevel.conservative_verdicts");
  XLOutcome O;
  std::string Src = generateProgram(Seed, C.Gen);
  ProgramSweep PS = sweepProgram("seed-" + std::to_string(Seed), Src);
  if (!PS.Compiled) {
    O.CompileFail = true;
    O.Failures.push_back(compileFailure(Seed, true, Src, "", PS.CompileError));
    return O;
  }
  O.Levels = std::move(PS.Levels);
  Candidates.record(PS.Regressions.size());

  // One ground-truth run per judgeable level: soundness, conservatism,
  // and the evidence base for judging this seed's candidates.  The runs
  // judge the sweep's own builds (unscheduled, so exactly the lockstep
  // builds) against its O0 row, which is the lockstep reference, recorded
  // once for them all.
  const auto &Table = pipelineLevels();
  LockstepOptions LO;
  LO.MaxStops = CrossLevelMaxStops;
  const ReferenceRecording Ref(
      PS.Builds[static_cast<std::size_t>(PipelineLevel::O0)].MM, LO.Fuel,
      LO.MaxStops);
  std::vector<std::vector<Violation>> LevelViolations(Table.size());
  for (std::size_t L = 0; L < Table.size(); ++L) {
    const LevelSpec &Spec = Table[L];
    if (!judgeable(Spec))
      continue;
    LockstepResult LR =
        runLockstep({Ref, PS.Builds[L].MM, *PS.Builds[L].IR}, LO);
    ++O.LockstepRuns;

    ConservatismCounts CC;
    CC.Level = Spec.Name;
    accumulateConservatism(CC, LR);
    O.Cons.push_back(CC);
    Conservative.record(CC.total());

    LevelViolations[L] = checkSoundness(LR);
    if (LevelViolations[L].empty())
      continue;
    ++O.UnsoundRuns;
    O.Failures.push_back(makeFailure(
        Seed, Spec.Promote, Src, Spec.Name, LevelViolations[L], C.Shrink,
        [&](const std::string &S) {
          return checkProgram(S, Spec.Promote, CrossLevelMaxStops,
                              &Spec.Opts);
        }));
  }

  // Judge the sweep's candidates against the ground truth at each
  // candidate's More level.
  for (AvailRegression &Reg : PS.Regressions) {
    JudgedRegression J;
    const LevelSpec &More = levelSpec(Reg.More);
    if (!judgeable(More)) {
      J.J = JudgedRegression::Judgment::Unjudged;
    } else {
      J.J = JudgedRegression::Judgment::Explained;
      for (const Violation &V :
           LevelViolations[static_cast<std::size_t>(Reg.More)])
        if (isUnsoundViolation(V.Kind) && V.Func == Reg.Func &&
            V.Stmt == Reg.Stmt && V.Var == Reg.VarName) {
          J.J = JudgedRegression::Judgment::Unexplained;
          break;
        }
    }
    J.R = std::move(Reg);
    O.Regs.push_back(std::move(J));
  }
  return O;
}

} // namespace

CrossLevelCampaignResult
sldb::runCrossLevelCampaign(const CrossLevelCampaignConfig &C) {
  CrossLevelCampaignResult R;
  checkConfig(C, "", R.ConfigError);
  if (!R.ConfigError.empty())
    return R;

  const auto &Table = pipelineLevels();
  R.Levels.resize(Table.size());
  for (std::size_t L = 0; L < Table.size(); ++L) {
    R.Levels[L].Level = Table[L].Name;
    if (judgeable(Table[L])) {
      ConservatismCounts CC;
      CC.Level = Table[L].Name;
      R.Conservatism.push_back(CC);
    }
  }

  runUnits<XLOutcome>(
      C, R, {"crosslevel"},
      [&](std::uint32_t Seed, unsigned) { return runXLUnit(C, Seed); },
      [&](XLOutcome &O) {
        R.LockstepRuns += O.LockstepRuns;
        R.UnsoundRuns += O.UnsoundRuns;
        R.CompileErrors += O.CompileFail;
        for (std::size_t L = 0; L < O.Levels.size() && L < R.Levels.size();
             ++L)
          R.Levels[L].add(O.Levels[L]);
        // A compiled seed has one conservatism row per judgeable level,
        // in table order.
        for (std::size_t L = 0; L < O.Cons.size(); ++L)
          R.Conservatism[L].add(O.Cons[L]);
        for (JudgedRegression &J : O.Regs) {
          R.Unexplained += J.J == JudgedRegression::Judgment::Unexplained;
          R.Regressions.push_back(std::move(J));
        }
      });
  return R;
}

std::string
sldb::renderCrossLevelCampaignReport(const CrossLevelCampaignResult &R) {
  if (!R.ConfigError.empty())
    return "config error: " + R.ConfigError + "\n";
  std::string S = renderLevelReport(R.Levels);
  S += "\n";
  S += renderConservatismReport(R.Conservatism);
  S += "\n";
  S += "programs: " + std::to_string(R.Programs) + ", lockstep runs: " +
       std::to_string(R.LockstepRuns) + ", unsound runs: " +
       std::to_string(R.UnsoundRuns);
  if (R.CompileErrors)
    S += ", compile errors: " + std::to_string(R.CompileErrors);
  S += "\n";

  unsigned Explained = 0, Unjudged = 0;
  for (const JudgedRegression &J : R.Regressions) {
    if (J.J == JudgedRegression::Judgment::Explained)
      ++Explained;
    else if (J.J == JudgedRegression::Judgment::Unjudged)
      ++Unjudged;
  }
  S += "regressions: " + std::to_string(R.Regressions.size()) +
       " candidate(s): " + std::to_string(Explained) + " explained, " +
       std::to_string(Unjudged) + " unjudged, " +
       std::to_string(R.Unexplained) + " unexplained\n";
  for (const JudgedRegression &J : R.Regressions)
    S += "  [" + std::string(judgmentName(J.J)) + "] " + J.R.str() + "\n";
  return S + renderVerdict(
                 R, R.sound(),
                 "cross-level:    OK (no unexplained availability "
                 "regression, every level sound)",
                 "cross-level:    FAIL (" + std::to_string(R.Unexplained) +
                     " unexplained regression(s), " +
                     std::to_string(R.UnsoundRuns) + " unsound run(s))",
                 [](const CampaignFailure &F) {
                   return "level " + F.Level + ": " +
                          F.Violations.front().str();
                 });
}
