//===- fuzz/CampaignEngine.cpp --------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/CampaignEngine.h"

#include "eval/Levels.h"
#include "fuzz/Reduce.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>

using namespace sldb;

const LevelSpec *sldb::checkConfig(const CampaignBaseConfig &C,
                                   const std::string &Level,
                                   std::string &Error) {
  const std::uint64_t Last =
      static_cast<std::uint64_t>(C.Seed) + (C.Count ? C.Count - 1 : 0);
  if (Last > std::numeric_limits<std::uint32_t>::max())
    Error = "seed range overflows 32 bits: --seed " + std::to_string(C.Seed) +
            " --count " + std::to_string(C.Count) + " reaches seed " +
            std::to_string(Last) +
            " > 4294967295; later seeds would wrap and re-run earlier "
            "programs (double-counting coverage) — split the range or "
            "lower --seed/--count";
  else if (C.ShardCount == 0)
    Error = "shard count must be >= 1";
  else if (C.ShardIndex >= C.ShardCount)
    Error = "shard index " + std::to_string(C.ShardIndex) +
            " out of range for " + std::to_string(C.ShardCount) +
            " shard(s)";
  return Error.empty() && !Level.empty() ? judgeableLevel(Level, Error)
                                          : nullptr;
}

const LevelSpec *sldb::judgeableLevel(const std::string &Name,
                                      std::string &Error) {
  const LevelSpec *Spec = findLevel(Name);
  if (!Spec)
    Error = "unknown pipeline level: " + Name;
  else if (!judgeable(*Spec))
    Error = "pipeline level '" + Name +
            "' duplicates or splices statements and cannot be judged by the "
            "lockstep oracle";
  return Error.empty() ? Spec : nullptr;
}

std::vector<bool> sldb::promoteModes(const LevelSpec *Level, bool Both,
                                     bool Promote) {
  if (Level)
    return {Level->Promote};
  if (Both)
    return {true, false};
  return {Promote};
}

static const char NotCompiled[] = "does not compile: ";

Violation sldb::notCompiled(const std::string &Error) {
  return {ViolationKind::LockstepDiverged, InvalidFunc, InvalidStmt, "",
          NotCompiled + Error};
}

bool sldb::compiles(const std::vector<Violation> &Vs) {
  return Vs.empty() || Vs.front().Detail.rfind(NotCompiled, 0) != 0;
}

CampaignFailure sldb::makeFailure(std::uint32_t Seed, bool Promote,
                                  const std::string &Src,
                                  const std::string &Level,
                                  std::vector<Violation> Vs, bool Shrink,
                                  const ProgramCheck &Check) {
  CampaignFailure F;
  F.Seed = Seed;
  F.Promote = Promote;
  F.Source = Src;
  F.Level = Level;
  F.Violations = std::move(Vs);
  if (Shrink) {
    const ViolationKind Kind = F.Violations.front().Kind;
    F.Reduced = reduceProgram(
        Src,
        [&](const std::string &Cand) {
          std::vector<Violation> CV = Check(Cand);
          return compiles(CV) &&
                 std::any_of(CV.begin(), CV.end(), [&](const Violation &V) {
                   return V.Kind == Kind;
                 });
        },
        /*MaxChecks=*/400);
  }
  return F;
}

CampaignFailure sldb::compileFailure(std::uint32_t Seed, bool Promote,
                                     const std::string &Src,
                                     const std::string &Level,
                                     const std::string &Error) {
  Violation V = notCompiled(Error);
  V.Detail = "generated program " + V.Detail;
  return makeFailure(Seed, Promote, Src, Level, {V});
}

std::string sldb::renderVerdict(
    const CampaignBaseResult &R, bool Sound, const std::string &Ok,
    const std::string &Fail,
    const std::function<std::string(const CampaignFailure &)> &Head) {
  if (Sound)
    return Ok + "\n";
  std::string S = Fail + "\n";
  for (const CampaignFailure &F : R.Failures) {
    S += "  seed " + std::to_string(F.Seed) + " " + Head(F) + "\n";
    if (!F.Path.empty())
      S += "    reproducer: " + F.Path + "\n";
  }
  return S;
}

std::string sldb::promoteHead(const CampaignFailure &F) {
  return std::string("(promote-vars ") + (F.Promote ? "on" : "off") +
         "): " + F.Violations.front().str();
}

std::vector<CampaignWorkerStats> sldb::toCampaignStats(
    const std::vector<WorkerStats> &WS,
    const std::function<std::uint32_t(std::size_t)> &SeedOfUnit) {
  std::vector<CampaignWorkerStats> Out;
  Out.reserve(WS.size());
  for (const WorkerStats &S : WS) {
    CampaignWorkerStats C;
    C.Worker = S.Worker;
    C.Units = S.Tasks;
    C.Steals = S.Steals;
    C.InitialQueue = S.InitialQueue;
    C.BusyUs = S.BusyUs;
    C.SlowestUs = S.SlowestUs;
    if (S.SlowestIndex != SIZE_MAX)
      C.SlowestSeed = SeedOfUnit(S.SlowestIndex);
    Out.push_back(C);
  }
  return Out;
}

std::string sldb::writeReproducer(const CampaignFailure &F,
                                  const std::string &Dir,
                                  std::set<std::string> &UsedPaths) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string Stem = Dir + "/seed-" + std::to_string(F.Seed) +
                     (F.FaultName.empty() ? "" : "-" + F.FaultName) +
                     (F.Level.empty() ? "" : "-" + F.Level) +
                     (F.Promote ? "-promote" : "-frame");
  std::string Path = Stem + ".minic";
  for (unsigned N = 2; !UsedPaths.insert(Path).second; ++N)
    Path = Stem + "-" + std::to_string(N) + ".minic";
  std::ofstream Out(Path);
  Out << renderFailure(F);
  return Path;
}
