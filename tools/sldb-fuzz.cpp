//===- tools/sldb-fuzz.cpp - Differential fuzzing driver --------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the differential fuzzing oracle:
///
///   sldb-fuzz --seed 1 --count 200         # campaign (both codegen modes)
///   sldb-fuzz --oracle=step --count 200    # stepping/line-table oracle
///   sldb-fuzz --oracle=crosslevel --count 50 # pipeline-lattice sweep
///   sldb-fuzz --inject --count 200         # fault-injection campaign
///   sldb-fuzz --dump-seed 42               # print one generated program
///   sldb-fuzz --repro fuzz-failures/x.minic  # re-judge one reproducer
///
/// Exit status: 0 when every run satisfies the soundness contract, 1 on
/// any violation (reproducers are written to --write-dir), 2 on usage
/// errors.
///
//===----------------------------------------------------------------------===//

#include "eval/Levels.h"
#include "fuzz/CampaignEngine.h"
#include "fuzz/QualityCampaign.h"
#include "support/Interrupt.h"
#include "support/ParseDecimal.h"
#include "support/Sharder.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

using namespace sldb;

namespace {

/// The bound of --jobs, as of sldbd --jobs and sldb-load --concurrency.
constexpr unsigned MaxJobs = 256;

struct Options {
  std::uint32_t Seed = 1;
  unsigned Count = 200;
  bool Promote = true;
  bool BothModes = true;
  bool Shrink = true;
  bool Write = true;
  std::string WriteDir; ///< Empty: the campaign's default directory.
  std::string ReproPath;
  std::optional<std::uint32_t> DumpSeed; ///< --dump-seed N.
  std::string Oracle = "diff"; ///< diff | step | crosslevel.
  std::string Level; ///< --level NAME: judge at one named pipeline level.
  bool Inject = false;
  int Isolate = -1; ///< -1 default (on for --inject, off otherwise).
  unsigned TimeoutMs = 20'000;
  bool TimeoutGiven = false;
  unsigned Jobs = 1;       ///< 0 = all hardware cores, else 1..MaxJobs.
  unsigned ShardIndex = 0; ///< --shard i/k.
  unsigned ShardCount = 1;
  bool WorkerStats = false;
  std::string TraceJson; ///< --trace-json FILE.
  bool Alias = false;    ///< --alias: arrays/pointers in the generator.
};

void usage() {
  std::fprintf(
      stderr,
      "usage: sldb-fuzz [options]\n"
      "  --seed N        first seed (default 1)\n"
      "  --count M       number of generated programs (default 200)\n"
      "  --no-promote    only the frame-slot codegen configuration\n"
      "  --no-shrink     keep reproducers unminimized\n"
      "  --no-write      do not write reproducer files\n"
      "  --write-dir D   reproducer directory (default fuzz-failures;\n"
      "                  fuzz-crashes for --inject)\n"
      "  --alias         enable the aliasing generator grammar (arrays,\n"
      "                  pointers, address-taken locals, indirect stores)\n"
      "  --dump-seed N   print the program for seed N and exit\n"
      "  --repro FILE    re-judge a program/reproducer file with the diff\n"
      "                  or step oracle and exit (a reproducer's header\n"
      "                  names the command that re-judges it)\n"
      "  --oracle=K      which oracle drives the campaign (default diff):\n"
      "                  diff       variable-value lockstep soundness\n"
      "                  step       stepping/line-table oracle (phantom or\n"
      "                             vanished statement boundaries fail)\n"
      "                  crosslevel sweep every pipeline level, judge\n"
      "                             availability regressions against the\n"
      "                             lockstep ground truth, and measure\n"
      "                             per-level conservatism\n"
      "  --level NAME    run the diff/step campaign at one named pipeline\n"
      "                  level (eval/Levels.h: O0, O2nl, O2nl-ssa, ...)\n"
      "                  instead of the default lockstep set; the level\n"
      "                  must be judgeable (no peel/unroll/inline)\n"
      "  --inject        fault-injection campaign: every seed is judged\n"
      "                  once per defended fault point; crashes, hangs,\n"
      "                  and unsound verdicts fail\n"
      "  --isolate       fork each check under a watchdog (default for\n"
      "                  --inject)\n"
      "  --no-isolate    run checks in-process\n"
      "  --timeout-ms N  watchdog budget per isolated check (default\n"
      "                  20000)\n"
      "  --jobs N        fan units across N worker threads (0..256; 0 =\n"
      "                  all cores; default 1).  The report is\n"
      "                  byte-identical for every N; with --isolate each\n"
      "                  worker forks its own watchdogged child\n"
      "  --shard I/K     run only the I-th of K contiguous slices of the\n"
      "                  seed range (0-based; distributed campaigns)\n"
      "  --worker-stats  print per-worker throughput/steal/slowest-seed\n"
      "                  stats plus the campaign-wide cache-hit/query\n"
      "                  counters to stderr after the campaign\n"
      "  --trace-json F  write the merged per-unit trace of any campaign\n"
      "                  (Chrome trace format, seed-major unit order,\n"
      "                  deterministic for every --jobs value) to F\n"
      "Flags the selected oracle does not use (--isolate, --no-isolate and\n"
      "--timeout-ms with step or crosslevel; --level and --no-promote with\n"
      "crosslevel) are usage errors, as are --inject with --oracle=step|\n"
      "crosslevel and --repro with --inject.\n");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    // Each integer flag parses into its field's own type, so a value
    // the field cannot hold is a usage error, never a wrapped one.
    auto Number = [&](auto &Out, auto... Range) {
      const char *V = Next();
      return V && parseDecimal(V, Out, Range...);
    };
    if (A == "--seed") {
      if (!Number(O.Seed))
        return false;
    } else if (A == "--count") {
      if (!Number(O.Count))
        return false;
    } else if (A == "--no-promote") {
      O.Promote = false;
      O.BothModes = false;
    } else if (A == "--no-shrink") {
      O.Shrink = false;
    } else if (A == "--no-write") {
      O.Write = false;
    } else if (A == "--write-dir") {
      const char *V = Next();
      if (!V)
        return false;
      O.WriteDir = V;
    } else if (A == "--dump-seed") {
      std::uint32_t Seed = 0;
      if (!Number(Seed))
        return false;
      O.DumpSeed = Seed;
    } else if (A == "--repro") {
      const char *V = Next();
      if (!V)
        return false;
      O.ReproPath = V;
    } else if (A.rfind("--oracle=", 0) == 0 || A == "--oracle") {
      const char *V = A == "--oracle" ? Next() : Argv[I] + 9;
      if (!V)
        return false;
      O.Oracle = V;
      if (O.Oracle != "diff" && O.Oracle != "step" &&
          O.Oracle != "crosslevel")
        return false;
    } else if (A == "--level") {
      const char *V = Next();
      if (!V)
        return false;
      O.Level = V;
    } else if (A == "--inject") {
      O.Inject = true;
    } else if (A == "--isolate") {
      O.Isolate = 1;
    } else if (A == "--no-isolate") {
      O.Isolate = 0;
    } else if (A == "--timeout-ms") {
      if (!Number(O.TimeoutMs))
        return false;
      O.TimeoutGiven = true;
    } else if (A == "--jobs") {
      if (!Number(O.Jobs, 0u, MaxJobs))
        return false;
    } else if (A == "--shard") {
      const char *V = Next();
      if (!V || !Sharder::parseSpec(V, O.ShardIndex, O.ShardCount))
        return false;
    } else if (A == "--alias") {
      O.Alias = true;
    } else if (A == "--worker-stats") {
      O.WorkerStats = true;
    } else if (A == "--trace-json") {
      const char *V = Next();
      if (!V)
        return false;
      O.TraceJson = V;
    } else {
      return false;
    }
  }
  return true;
}

/// The usage error for a flag combination the selected mode would
/// silently ignore, or "" when every flag given is used.
std::string flagConflict(const Options &O) {
  if (O.Inject && O.Oracle != "diff")
    return "--oracle=" + O.Oracle + " cannot be combined with --inject";
  if (!O.ReproPath.empty() && O.Inject)
    return "--repro cannot be combined with --inject (an inject reproducer "
           "re-runs its seed: sldb-fuzz --inject --seed S --count 1)";
  if (!O.ReproPath.empty() && O.Oracle == "crosslevel")
    return "--repro judges with --oracle=diff or --oracle=step (a "
           "cross-level reproducer names its --level)";
  if (O.Oracle == "diff")
    return "";
  const std::string Why = " is not used by --oracle=" + O.Oracle;
  if (O.Isolate == 1)
    return "--isolate" + Why;
  if (O.Isolate == 0)
    return "--no-isolate" + Why;
  if (O.TimeoutGiven)
    return "--timeout-ms" + Why;
  if (O.Oracle == "crosslevel" && !O.Level.empty())
    return "--level" + Why;
  if (O.Oracle == "crosslevel" && !O.BothModes)
    return "--no-promote" + Why;
  return "";
}

/// Re-judges one program with the per-oracle check the campaign's
/// shrinker uses, in each requested codegen mode.
int runRepro(const Options &O) {
  std::ifstream In(O.ReproPath);
  if (!In) {
    std::fprintf(stderr, "sldb-fuzz: cannot read '%s'\n",
                 O.ReproPath.c_str());
    return 2;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Src = SS.str();

  // A reproducer from a level campaign must be re-judged at that level.
  std::string Error;
  const LevelSpec *Spec =
      O.Level.empty() ? nullptr : judgeableLevel(O.Level, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "sldb-fuzz: %s\n", Error.c_str());
    return 2;
  }
  const OptOptions *Opts = Spec ? &Spec->Opts : nullptr;
  int Status = 0;
  const bool OneMode = !O.BothModes || Spec;
  for (int Mode = 0; Mode < (OneMode ? 1 : 2); ++Mode) {
    bool Promote = Spec      ? Spec->Promote
                   : OneMode ? O.Promote
                             : Mode == 0;
    std::vector<Violation> Vs =
        O.Oracle == "step" ? checkStepProgram(Src, Promote, 20000, Opts)
                           : checkProgram(Src, Promote, 4000, Opts);
    std::printf("%s oracle, promote-vars %s: %zu violation(s)\n",
                O.Oracle.c_str(), Promote ? "on" : "off", Vs.size());
    for (const Violation &V : Vs) {
      std::printf("  %s\n", V.str().c_str());
      Status = 1;
    }
  }
  return Status;
}

/// Per-worker diagnostics, on stderr so campaign *reports* (stdout)
/// stay byte-identical across --jobs values.  The trailing totals line
/// folds in the process-wide Stats counters the campaign accumulated:
/// classifier queries per second of total worker busy time and the
/// analysis cache's hit rate.  Isolated campaigns fork each unit,
/// so the children's counters never reach this process and the totals
/// read zero — same trade as the coverage accounting.
void printWorkerStats(const std::vector<CampaignWorkerStats> &Workers) {
  std::uint64_t BusyUs = 0;
  for (const CampaignWorkerStats &W : Workers) {
    std::fprintf(stderr,
                 "worker %u: %u unit(s) (%u stolen, queued %u), "
                 "%.1f units/s busy, slowest seed %u (%llu ms)\n",
                 W.Worker, W.Units, W.Steals, W.InitialQueue,
                 W.unitsPerSec(), W.SlowestSeed,
                 static_cast<unsigned long long>(W.SlowestUs / 1000));
    BusyUs += W.BusyUs;
  }
  std::uint64_t Queries = Stats::counter("classifier.queries").value();
  std::uint64_t AH = Stats::counter("analysis.cache.hits").value();
  std::uint64_t AM = Stats::counter("analysis.cache.misses").value();
  std::fprintf(stderr,
               "totals: %llu classifier queries (%.0f/s busy), "
               "analysis cache %.1f%% hit\n",
               static_cast<unsigned long long>(Queries),
               BusyUs ? 1e6 * static_cast<double>(Queries) /
                            static_cast<double>(BusyUs)
                      : 0.0,
               Stats::percent(AH, AM));
}

/// Writes the merged campaign trace (--trace-json).  Returns false (and
/// complains) on I/O failure.
bool writeTraceFile(const std::string &Path,
                    const std::vector<TraceEvent> &Events) {
  std::ofstream Out(Path, std::ios::binary);
  if (Out)
    Out << Trace::renderJson(Events);
  if (!Out) {
    std::fprintf(stderr, "sldb-fuzz: cannot write trace file '%s'\n",
                 Path.c_str());
    return false;
  }
  return true;
}

/// The shared campaign config fields, from the command line.
void setup(CampaignBaseConfig &C, const Options &O) {
  C.Seed = O.Seed;
  C.Count = O.Count;
  C.Gen.Alias = O.Alias;
  C.Shrink = O.Shrink;
  C.WriteFailures = O.Write;
  if (!O.WriteDir.empty())
    C.FailureDir = O.WriteDir;
  C.Jobs = O.Jobs;
  C.ShardIndex = O.ShardIndex;
  C.ShardCount = O.ShardCount;
  C.CollectTrace = !O.TraceJson.empty();
}

/// The shared end of every campaign: config errors exit 2, diagnostics
/// go to stderr and the trace file, the report to stdout.  A graceful
/// interruption (SIGINT/SIGTERM) is folded into the exit status: the
/// report covers everything that finished before the signal and the
/// reproducers are already flushed, so a note plus the conventional
/// 128+SIGINT status keep a partial report from being mistaken for a
/// complete one.
int finish(const Options &O, const CampaignBaseResult &R, bool Sound,
           const std::string &Report) {
  if (!R.ConfigError.empty()) {
    std::fprintf(stderr, "sldb-fuzz: %s\n", R.ConfigError.c_str());
    return 2;
  }
  if (O.WorkerStats)
    printWorkerStats(R.Workers);
  if (!O.TraceJson.empty() && !writeTraceFile(O.TraceJson, R.Trace))
    return 2;
  std::fputs(Report.c_str(), stdout);
  if (R.SkippedUnits == 0)
    return Sound ? 0 : 1;
  std::fprintf(stderr,
               "sldb-fuzz: interrupted — report is PARTIAL (%u unit(s) "
               "skipped); reproducers for completed units are on disk\n",
               R.SkippedUnits);
  return 130;
}

int runCampaigns(const Options &O) {
  if (O.Inject) {
    InjectCampaignConfig C;
    setup(C, O);
    C.Promote = O.Promote;
    C.Level = O.Level;
    C.Isolate = O.Isolate != 0; // Default on for --inject.
    C.TimeoutMs = O.TimeoutMs;
    InjectCampaignResult R = runInjectCampaign(C);
    return finish(O, R, R.sound(), renderInjectCampaignReport(R, C.Isolate));
  }
  if (O.Oracle == "step") {
    StepCampaignConfig C;
    setup(C, O);
    C.BothPromoteModes = O.BothModes;
    C.Promote = O.Promote;
    C.Level = O.Level;
    StepCampaignResult R = runStepCampaign(C);
    return finish(O, R, R.sound(), renderStepCampaignReport(R));
  }
  if (O.Oracle == "crosslevel") {
    CrossLevelCampaignConfig C;
    setup(C, O);
    CrossLevelCampaignResult R = runCrossLevelCampaign(C);
    return finish(O, R, R.sound(), renderCrossLevelCampaignReport(R));
  }
  CampaignConfig C;
  setup(C, O);
  C.BothPromoteModes = O.BothModes;
  C.Promote = O.Promote;
  C.Level = O.Level;
  C.Isolate = O.Isolate == 1;
  C.TimeoutMs = O.TimeoutMs;
  CampaignResult R = runCampaign(C);
  return finish(O, R, R.sound(), renderCampaignReport(R));
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    usage();
    return 2;
  }
  if (std::string E = flagConflict(O); !E.empty()) {
    std::fprintf(stderr, "sldb-fuzz: %s\n", E.c_str());
    return 2;
  }
  // Ctrl-C / SIGTERM flush a partial report instead of losing the
  // campaign: workers drain at the next unit boundary, merges run as
  // usual, and finish() marks the output partial (exit 130).
  installInterruptHandlers();
  if (!O.TraceJson.empty())
    Trace::enable();

  if (O.DumpSeed) {
    GenOptions G;
    G.Alias = O.Alias;
    std::string Src = generateProgram(*O.DumpSeed, G);
    std::fputs(Src.c_str(), stdout);
    return 0;
  }
  return O.ReproPath.empty() ? runCampaigns(O) : runRepro(O);
}
