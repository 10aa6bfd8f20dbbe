//===- fuzz/Campaign.cpp --------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The differential and fault-injection oracles on the campaign engine
// (fuzz/CampaignEngine.h): units are seeds for the differential campaign
// (each judged in every promote mode from one SharedBuilds) and (seed,
// fault-point) pairs for the injection campaign.  Both can fork each run
// under a watchdog (fuzz/Isolation.h).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"

#include "eval/Levels.h"
#include "fuzz/CampaignEngine.h"
#include "fuzz/Isolation.h"
#include "fuzz/Reduce.h"
#include "support/FaultInjector.h"

#include <optional>

using namespace sldb;

unsigned CampaignCoverage::fired(const std::string &PassName) const {
  unsigned N = 0;
  for (const PassFiring &F : Firings)
    if (F.Name == PassName)
      N += F.Changed;
  return N;
}

void CampaignCoverage::add(const CampaignCoverage &O) {
  WithHoisted += O.WithHoisted;
  WithSunk += O.WithSunk;
  WithDeadMarks += O.WithDeadMarks;
  WithAvailMarks += O.WithAvailMarks;
  WithSRRecords += O.WithSRRecords;
  if (Firings.empty())
    Firings = O.Firings;
  else
    for (std::size_t S = 0; S < Firings.size() && S < O.Firings.size(); ++S)
      Firings[S].Changed += O.Firings[S].Changed;
}

std::vector<Violation> sldb::checkProgram(const std::string &Src,
                                          bool Promote, unsigned MaxStops,
                                          const OptOptions *Opts) {
  LockstepOptions LO;
  if (Opts)
    LO.Opts = *Opts;
  LO.Promote = Promote;
  LO.MaxStops = MaxStops;
  LockstepResult R = runLockstep(Src, LO);
  // Surface a compile failure as a violation so campaign-level
  // accounting never silently drops a program.
  return R.Compiled ? checkSoundness(R)
                    : std::vector<Violation>{notCompiled(R.CompileError)};
}

std::string sldb::renderFailure(const CampaignFailure &F) {
  std::string S;
  S += "// sldb-fuzz reproducer\n";
  S += "// seed: " + std::to_string(F.Seed) + "\n";
  S += "// promote-vars: " + std::string(F.Promote ? "on" : "off") + "\n";
  if (!F.FaultName.empty())
    S += "// injected-fault: " + F.FaultName + "\n";
  if (!F.Level.empty())
    S += "// level: " + F.Level + "\n";
  if (!F.ProcessOutcome.empty())
    S += "// process-outcome: " + F.ProcessOutcome + "\n";
  for (const Violation &V : F.Violations)
    S += "// violation: " + V.str() + "\n";
  S += "//\n";
  // An injected fault is armed by the campaign, not by the program, so an
  // inject reproducer re-runs its seed's fault matrix.
  if (F.Oracle == "inject")
    S += "// Reproduce: sldb-fuzz --inject --seed " + std::to_string(F.Seed) +
         " --count 1" + (F.Alias ? " --alias" : "");
  else
    S += "// Reproduce: sldb-fuzz --repro <this file>" +
         std::string(F.Oracle == "step" ? " --oracle=step" : "");
  if (!F.Level.empty())
    S += " --level " + F.Level;
  S += F.Promote ? "\n" : " --no-promote\n";
  S += F.Reduced.empty() ? F.Source : F.Reduced;
  return S;
}

bool sldb::isUnsoundViolation(ViolationKind K) {
  return K == ViolationKind::UnsoundCurrent ||
         K == ViolationKind::WrongRecovery ||
         K == ViolationKind::MissedUninitialized;
}

namespace {

/// A forked check: (passed, report), the runIsolated callback contract.
using ProbeFn =
    std::function<std::pair<bool, std::string>(const std::string &)>;

/// Builds the crash/hang record for a seed the isolation layer caught,
/// reducing it with a fork-based predicate (re-running the candidate in
/// this process would reproduce the crash in the campaign itself).
CampaignFailure makeProcessFailure(std::uint32_t Seed, bool Promote,
                                   const std::string &Src,
                                   const std::string &Level,
                                   const IsolatedOutcome &O, bool Shrink,
                                   unsigned TimeoutMs, const ProbeFn &Probe) {
  std::string What = O.Status == IsolatedStatus::Timeout
                         ? "timeout (watchdog expired)"
                     : O.Signal != 0
                         ? "crash (signal " + std::to_string(O.Signal) + ")"
                         : "crash (abnormal exit)";
  ViolationKind K = O.Status == IsolatedStatus::Timeout
                        ? ViolationKind::ProcessHang
                        : ViolationKind::ProcessCrash;
  CampaignFailure F = makeFailure(Seed, Promote, Src, Level,
                                  {{K, InvalidFunc, InvalidStmt, "", What}});
  F.ProcessOutcome = What;
  if (Shrink)
    F.Reduced = reduceProgram(
        Src,
        [&](const std::string &Cand) {
          IsolatedStatus S =
              runIsolated(TimeoutMs, [&] { return Probe(Cand); }).Status;
          return S == IsolatedStatus::Crash || S == IsolatedStatus::Timeout;
        },
        /*MaxChecks=*/120);
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential campaign
//===----------------------------------------------------------------------===//

namespace {

/// Process failures of the differential campaign are archived apart from
/// its soundness failures.
constexpr const char *DiffCrashDir = "fuzz-crashes";

/// One seed's outcome: its runs, one per mode in fold order, up to and
/// including the first that failed to compile.
struct DiffOutcome : UnitOutcome {
  unsigned Runs = 0;
  bool CompileFail = false; ///< Generator bug; later modes did not run.
  std::uint64_t Stops = 0;
  std::uint64_t Observations = 0;
  CampaignCoverage Coverage; ///< The first mode's evidence.
};

/// Runs one seed in each of \p Modes (promote flags, in order) on the
/// calling worker thread.  The modes share one SharedBuilds, built on
/// the first in-process run; the first mode instruments the pipeline
/// (the IR pipeline does not depend on the codegen configuration).
DiffOutcome runDiffUnit(const CampaignConfig &C, std::uint32_t Seed,
                        const std::vector<bool> &Modes,
                        const OptOptions &Opts) {
  DiffOutcome O;
  std::string Src = generateProgram(Seed, C.Gen);
  std::optional<SharedBuilds> Builds;
  for (std::size_t K = 0; K < Modes.size(); ++K) {
    const bool Promote = Modes[K];
    auto Check = [&](const std::string &S) {
      return checkProgram(S, Promote, 4000, &Opts);
    };
    ++O.Runs;

    if (C.Isolate) {
      // Containment first: probe the (seed, mode) in a forked child.
      // A clean child skips the in-process run (its coverage stats are
      // lost to the fork — the documented trade); a child that failed
      // *cleanly* is re-run in-process below for the full
      // shrink-and-record path, which is safe precisely because the
      // child proved the seed does not bring the process down.
      ProbeFn Probe = [&](const std::string &S) {
        std::vector<Violation> Vs = Check(S);
        std::string Rep;
        for (const Violation &V : Vs)
          Rep += V.str() + "\n";
        return std::make_pair(Vs.empty(), Rep);
      };
      IsolatedOutcome IO =
          runIsolated(C.TimeoutMs, [&] { return Probe(Src); });
      if (IO.Status == IsolatedStatus::Ok)
        continue;
      if (IO.Status != IsolatedStatus::Violation) {
        O.Failures.push_back(makeProcessFailure(Seed, Promote, Src, C.Level,
                                                IO, C.Shrink, C.TimeoutMs,
                                                Probe));
        continue;
      }
    }

    if (!Builds)
      Builds.emplace(Src, Opts, /*Instrument=*/true);
    LockstepOptions LO;
    LO.Promote = Promote;
    LO.InstrumentPasses = K == 0;
    LockstepResult LR = runLockstep(*Builds, LO);
    if (!LR.Compiled) {
      O.CompileFail = true;
      O.Failures.push_back(
          compileFailure(Seed, Promote, Src, C.Level, LR.CompileError));
      break;
    }

    O.Stops += LR.Stops.size();
    for (const StopObservation &S : LR.Stops)
      O.Observations += S.Vars.size();
    if (K == 0) {
      O.Coverage.Firings = std::move(LR.Firings);
      O.Coverage.WithHoisted = LR.NumHoisted != 0;
      O.Coverage.WithSunk = LR.NumSunk != 0;
      O.Coverage.WithDeadMarks = LR.NumDeadMarks != 0;
      O.Coverage.WithAvailMarks = LR.NumAvailMarks != 0;
      O.Coverage.WithSRRecords = LR.NumSRRecords != 0;
    }

    std::vector<Violation> Vs = checkSoundness(LR);
    if (!Vs.empty())
      O.Failures.push_back(makeFailure(Seed, Promote, Src, C.Level,
                                       std::move(Vs), C.Shrink, Check));
  }
  return O;
}

} // namespace

CampaignResult sldb::runCampaign(const CampaignConfig &C) {
  CampaignResult R;
  const LevelSpec *Spec = checkConfig(C, C.Level, R.ConfigError);
  if (!R.ConfigError.empty())
    return R;

  // Level campaigns collapse to one mode with the level's own settings.
  const std::vector<bool> Modes =
      promoteModes(Spec, C.BothPromoteModes, C.Promote);
  const OptOptions Opts = Spec ? Spec->Opts : LockstepOptions::lockstepOpts();
  runUnits<DiffOutcome>(
      C, R, {"diff", 1, DiffCrashDir},
      [&](std::uint32_t Seed, unsigned) {
        return runDiffUnit(C, Seed, Modes, Opts);
      },
      [&](DiffOutcome &O) {
        R.Runs += O.Runs;
        R.FailedCompiles += O.CompileFail;
        R.Stops += O.Stops;
        R.Observations += O.Observations;
        R.Coverage.add(O.Coverage);
      });
  return R;
}

std::string sldb::renderCampaignReport(const CampaignResult &R) {
  if (!R.ConfigError.empty())
    return "config error: " + R.ConfigError + "\n";
  const CampaignCoverage &Cov = R.Coverage;
  std::string S =
      "programs:      " + std::to_string(R.Programs) + " (" +
      std::to_string(R.Runs) + " lockstep runs)\n" +
      "paired stops:  " + std::to_string(R.Stops) + " (" +
      std::to_string(R.Observations) + " variable observations)\n" +
      "coverage:      hoisted " + std::to_string(Cov.WithHoisted) +
      ", sunk " + std::to_string(Cov.WithSunk) + ", dead-marks " +
      std::to_string(Cov.WithDeadMarks) + ", avail-marks " +
      std::to_string(Cov.WithAvailMarks) + ", iv-recoveries " +
      std::to_string(Cov.WithSRRecords) + " (of " +
      std::to_string(R.Programs) + " programs)\n";
  for (const PassFiring &F : Cov.Firings)
    if (F.Changed)
      S += "  pass " + F.Name +
           std::string(F.Name.size() < 44 ? 44 - F.Name.size() : 0, ' ') +
           " fired " + std::to_string(F.Changed) + "\n";
  if (R.FailedCompiles)
    S += "GENERATOR BUG: " + std::to_string(R.FailedCompiles) +
         " programs failed to compile\n";
  return S + renderVerdict(R, R.sound(),
                           "soundness:     OK (no Current-with-wrong-value, "
                           "no wrong recovery, tables consistent)",
                           "soundness:     " +
                               std::to_string(R.Failures.size()) +
                               " FAILING program(s)",
                           promoteHead);
}

//===----------------------------------------------------------------------===//
// Fault-injection campaign
//===----------------------------------------------------------------------===//

namespace {

/// One (seed, fault-point) unit's outcome.  The kinds are in the order
/// of the InjectCampaignResult counters they bump.
struct InjectOutcome : UnitOutcome {
  enum class Kind : std::uint8_t {
    Clean,
    CompileError,
    Degraded,
    Unsound,
    Crash,
    Hang
  };
  Kind K = Kind::Clean;
};
using InjectKind = InjectOutcome::Kind;

/// Sorts one check's violations into an outcome kind, plus the text of
/// the unsound ones (one line each) for an Unsound run.
std::pair<InjectKind, std::string>
injectVerdict(const std::vector<Violation> &Vs) {
  std::string Unsound;
  for (const Violation &V : Vs)
    if (isUnsoundViolation(V.Kind))
      Unsound += V.str() + "\n";
  if (!Unsound.empty())
    return {InjectKind::Unsound, Unsound};
  if (!compiles(Vs))
    return {InjectKind::CompileError, ""};
  return {Vs.empty() ? InjectKind::Clean : InjectKind::Degraded, ""};
}

/// Runs one (seed, fault-point) unit on the calling worker thread.  The
/// fault is armed on this thread for each whole lockstep run (the oracle
/// side compiles and runs with injection suspended, see fuzz/Oracle.cpp)
/// and disarmed after it.
InjectOutcome runInjectUnit(const InjectCampaignConfig &C,
                            std::uint32_t Seed, const FaultPoint &P,
                            bool Promote, const OptOptions *Opts) {
  auto Verdict = [&](const std::string &S) {
    FaultInjector::arm(P.Id, Seed);
    std::vector<Violation> Vs = checkProgram(S, Promote, 4000, Opts);
    FaultInjector::disarm();
    return injectVerdict(Vs);
  };
  // Child protocol for an isolated check: the kind as one digit, then
  // the unsound violations.  Exit status 1 iff unsound.
  ProbeFn Probe = [&](const std::string &S) {
    auto [K, Text] = Verdict(S);
    return std::make_pair(K != InjectKind::Unsound,
                          std::to_string(static_cast<int>(K)) + Text);
  };
  IsolatedOutcome IO;
  auto Judge = [&](const std::string &S) -> std::pair<InjectKind, std::string> {
    if (!C.Isolate)
      return Verdict(S);
    IO = runIsolated(C.TimeoutMs, [&] { return Probe(S); });
    if (IO.Status == IsolatedStatus::Crash)
      return {InjectKind::Crash, ""};
    if (IO.Status == IsolatedStatus::Timeout)
      return {InjectKind::Hang, ""};
    if (IO.Report.empty())
      return {InjectKind::Clean, ""};
    return {static_cast<InjectKind>(IO.Report[0] - '0'), IO.Report.substr(1)};
  };

  InjectOutcome O;
  std::string Src = generateProgram(Seed, C.Gen);
  auto [K, Text] = Judge(Src);
  O.K = K;
  if (K == InjectKind::Crash || K == InjectKind::Hang) {
    O.Failures.push_back(makeProcessFailure(Seed, Promote, Src, C.Level, IO,
                                            C.Shrink, C.TimeoutMs, Probe));
  } else if (K == InjectKind::Unsound) {
    O.Failures.push_back(makeFailure(
        Seed, Promote, Src, C.Level,
        {{ViolationKind::UnsoundCurrent, InvalidFunc, InvalidStmt, "", Text}}));
    if (C.Shrink)
      O.Failures.back().Reduced = reduceProgram(
          Src,
          [&](const std::string &Cand) {
            return Judge(Cand).first == InjectKind::Unsound;
          },
          /*MaxChecks=*/120);
  }
  for (CampaignFailure &F : O.Failures)
    F.FaultName = P.Name;
  return O;
}

} // namespace

InjectCampaignResult sldb::runInjectCampaign(const InjectCampaignConfig &C) {
  InjectCampaignResult R;
  const LevelSpec *Spec = checkConfig(C, C.Level, R.ConfigError);
  if (!R.ConfigError.empty())
    return R;

  // Every *defended* fault point: the two undefended classifier faults
  // are the oracle's teeth (their whole purpose is to be caught as
  // unsound) and are exercised by the differential suite instead.
  std::vector<const FaultPoint *> Points;
  for (const FaultPoint &P : FaultInjector::points())
    if (P.Defended)
      Points.push_back(&P);

  const bool Promote = Spec ? Spec->Promote : C.Promote;
  unsigned *Counters[] = {nullptr,        &R.CompileErrors, &R.DegradedRuns,
                          &R.UnsoundRuns, &R.Crashes,       &R.Hangs};
  runUnits<InjectOutcome>(
      C, R, {"inject", static_cast<unsigned>(Points.size())},
      [&](std::uint32_t Seed, unsigned K) {
        return runInjectUnit(C, Seed, *Points[K], Promote,
                             Spec ? &Spec->Opts : nullptr);
      },
      [&](InjectOutcome &O) {
        ++R.Runs;
        if (unsigned *N = Counters[static_cast<int>(O.K)])
          ++*N;
      });
  return R;
}

std::string sldb::renderInjectCampaignReport(const InjectCampaignResult &R,
                                             bool Isolated) {
  if (!R.ConfigError.empty())
    return "config error: " + R.ConfigError + "\n";
  unsigned Defended = 0;
  for (const FaultPoint &P : FaultInjector::points())
    Defended += P.Defended;
  std::string S =
      "inject:        " + std::to_string(R.Programs) + " programs x " +
      std::to_string(Defended) + " fault points = " +
      std::to_string(R.Runs) + " runs (" +
      (Isolated ? "isolated, watchdog on" : "in-process") + ")\n" +
      "outcomes:      " + std::to_string(R.DegradedRuns) +
      " degraded-conservative, " + std::to_string(R.CompileErrors) +
      " compile errors, " + std::to_string(R.Crashes) + " crashes, " +
      std::to_string(R.Hangs) + " hangs, " + std::to_string(R.UnsoundRuns) +
      " unsound\n";
  return S + renderVerdict(
                 R, R.sound(),
                 "injection:     OK (no crash, no hang, no unsound verdict "
                 "under any injected fault)",
                 "injection:     " + std::to_string(R.Failures.size()) +
                     " FAILING run(s)",
                 [](const CampaignFailure &F) {
                   return "fault " + F.FaultName + ": " +
                          (F.ProcessOutcome.empty()
                               ? F.Violations.front().str()
                               : F.ProcessOutcome);
                 });
}
