//===- perfbench/src/Debug.cpp - The debug workload -----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `debug`: the paper's experiment driven the way a user drives it.  Each
/// eval program (the Table 2 stand-ins), compiled at O2, is debugged with
/// a breakpoint at every statement and a full scope report at every stop,
/// to exit.  Between those sessions the workload *opens* programs at
/// seeded breakpoints: source to the first stop at the breakpoint,
/// including its scope report.  vm and core do nearly all the session
/// work; an open also pays for the compile.
///
/// Correctness, outside the timed sections: every session must exit
/// normally with the interpreter's output and exit value, every open must
/// stop at its breakpoint, and the per-session counts must repeat.
///
//===----------------------------------------------------------------------===//

#include "Toolchain.h"
#include "Workloads.h"

#include "core/Debugger.h"
#include "eval/Programs.h"

#include <algorithm>

using namespace sldb;

namespace perfbench {
namespace {

/// A seeded breakpoint: (program, function, statement), stopped at on
/// its first hit.
struct Breakpoint {
  unsigned Program;
  FuncId F;
  StmtId S;
};

struct DebugInputs {
  std::vector<Compiled> Modules; ///< The eval programs at O2.
  std::vector<Breakpoint> Breaks;
  std::vector<unsigned> SessionOrder;
};

/// Breakpoints per program.  Each program's statements are sorted by the
/// dynamic order of their first hit and sampled in equal strata (one
/// seeded pick per stratum), so every seed draws the same spread of
/// run-to-breakpoint distances.
constexpr unsigned BreaksPerProgram = 30;

DebugInputs makeInputs(std::uint64_t Seed, Report &R) {
  DebugInputs In;
  Rng G(Seed * 0x9e3779b97f4a7c15ull + 7);
  const auto &Programs = benchmarkPrograms();
  In.Modules.resize(Programs.size());
  for (unsigned P = 0; P < Programs.size(); ++P) {
    compileSource(Programs[P].Source, levelO2(), nullptr, In.Modules[P]);
    checkBackEnd(In.Modules[P], levelO2());
    if (!In.Modules[P].ok()) {
      R.fail(std::string(Programs[P].Name) + ": " + In.Modules[P].Error);
      continue;
    }
    // Statements in order of first hit.
    std::vector<std::pair<FuncId, StmtId>> FirstHits;
    Debugger D(In.Modules[P].MM);
    D.breakEverywhere();
    std::vector<std::vector<bool>> Seen(In.Modules[P].MM.Funcs.size());
    for (StopReason SR = D.run(); SR == StopReason::Breakpoint;
         SR = D.resume()) {
      std::optional<StmtId> S = D.currentStmt();
      FuncId F = D.currentFunction();
      if (!S)
        continue;
      if (Seen[F].size() <= *S)
        Seen[F].resize(*S + 1);
      if (!Seen[F][*S]) {
        Seen[F][*S] = true;
        FirstHits.emplace_back(F, *S);
      }
    }
    const std::size_t N = FirstHits.size();
    for (unsigned K = 0; K < BreaksPerProgram && N; ++K) {
      std::size_t Lo = K * N / BreaksPerProgram;
      std::size_t Hi = std::max(Lo + 1, (K + 1) * N / BreaksPerProgram);
      const auto &Hit = FirstHits[Lo + G.below(static_cast<std::uint32_t>(Hi - Lo))];
      In.Breaks.push_back({P, Hit.first, Hit.second});
    }
  }
  for (std::size_t I = In.Breaks.size(); I > 1; --I)
    std::swap(In.Breaks[I - 1], In.Breaks[G.below(static_cast<std::uint32_t>(I))]);
  for (unsigned P = 0; P < Programs.size(); ++P)
    In.SessionOrder.push_back(P);
  for (std::size_t I = In.SessionOrder.size(); I > 1; --I)
    std::swap(In.SessionOrder[I - 1],
              In.SessionOrder[G.below(static_cast<std::uint32_t>(I))]);
  return In;
}

/// Counts of one open, for the traced run.
struct OpenCounts {
  std::uint64_t Reports = 0, Degraded = 0, VmInstrs = 0;
};

/// Opens \p B: source to the first stop at the breakpoint, with its scope
/// report.  Returns the time in ms (the compile included).  With gauges,
/// the compile is scaled by \p CompileGauge and the rest (classifier
/// builds, the run to the breakpoint, the report) by \p DebugGauge.
double openAt(const Breakpoint &B, Report &R, OpenCounts &OC,
              LayerLedger *Ledger, const SpeedGauge *CompileGauge = nullptr,
              const SpeedGauge *DebugGauge = nullptr) {
  R.attempt();
  const std::string &Src = benchmarkPrograms()[B.Program].Source;
  const Clock::time_point T0 = Clock::now();
  Compiled C;
  compileSource(Src, levelO2(), nullptr, C, Ledger);
  const double CompileMs = msSince(T0);
  checkBackEnd(C, levelO2());
  if (!C.ok()) {
    R.fail("open: " + C.Error);
    return CompileMs;
  }
  const Clock::time_point T1 = Clock::now();
  Debugger D(C.MM);
  for (FuncId F = 0; F < C.MM.Funcs.size(); ++F) {
    TraceSpan S("classifier.build", "perfbench");
    D.classifier(F);
  }
  bool Set = D.setBreakpointAtStmt(B.F, B.S);
  StopReason SR;
  {
    TraceSpan S("vm.resume", "perfbench");
    SR = D.run();
  }
  std::vector<VarReport> Reports;
  if (SR == StopReason::Breakpoint) {
    TraceSpan S("debugger.scope", "perfbench");
    Reports = D.reportScope();
  }
  const double DebugMs = msSince(T1);
  if (!Set || SR != StopReason::Breakpoint || D.currentFunction() != B.F ||
      D.currentStmt() != std::optional<StmtId>(B.S))
    R.fail(std::string("open of ") + benchmarkPrograms()[B.Program].Name +
           " did not stop at its breakpoint");
  OC.Reports += Reports.size();
  for (const VarReport &V : Reports)
    OC.Degraded += V.Class.Degraded;
  OC.VmInstrs += D.machine().instrCount();
  if (CompileGauge && DebugGauge)
    return CompileMs * CompileGauge->scale() + DebugMs * DebugGauge->scale();
  return CompileMs + DebugMs;
}

/// The static classifier sweep: every statement by every scope variable
/// of every eval program, on fresh classifiers.  Returns the query count.
std::uint64_t classifierSweep(const DebugInputs &In) {
  std::uint64_t Queries = 0;
  for (const Compiled &C : In.Modules)
    for (const MachineFunction &MF : C.MM.Funcs) {
      std::unique_ptr<Classifier> CL;
      {
        TraceSpan S("classifier.build", "perfbench");
        CL = std::make_unique<Classifier>(MF, *C.MM.Info);
      }
      TraceSpan S("classifier.sweep", "perfbench");
      const FuncInfo &FI = C.MM.Info->func(MF.Id);
      for (StmtId St = 0; St < MF.StmtAddr.size(); ++St) {
        if (MF.StmtAddr[St] < 0)
          continue;
        for (VarId V : FI.Stmts[St].ScopeVars) {
          CL->classify(static_cast<std::uint32_t>(MF.StmtAddr[St]), V);
          ++Queries;
        }
      }
    }
  return Queries;
}

/// Checks one session against the interpreter's run of its program.
void checkSession(const SessionCounts &S, unsigned Program,
                  const std::vector<ExecResult> &Refs, Report &R) {
  const ExecResult &Ref = Refs[Program];
  if (!S.Finished || S.Output != Ref.outputText() ||
      S.ExitValue != Ref.ExitValue)
    R.fail(std::string("session of ") + benchmarkPrograms()[Program].Name +
           " differs from the interpreter");
}

} // namespace

void runDebugWorkload(const Options &O, Report &R) {
  DebugInputs In;
  const double SetupS = measureSetup(R, [&] { In = makeInputs(O.Seed, R); });
  SpeedGauge G;
  if (In.Breaks.empty())
    return R.fail("no breakpoints drawn");
  std::vector<ExecResult> Refs;
  for (const BenchProgram &P : benchmarkPrograms())
    Refs.push_back(referenceRun(P.Source));

  if (O.Traced) {
    LayerLedger L;
    std::map<std::string, double> Out;
    std::uint64_t Degraded = 0, Queries = 0, VmInstrs = 0;
    double Passes = runTracedPasses(O, R, L, [&](bool Traced) {
      PassOutcome P;
      LayerLedger *Led = Traced ? &L : nullptr;
      std::uint64_t Stops = 0, Reports = 0, Clean = 0, Instrs = 0;
      for (unsigned Prog : In.SessionOrder) {
        SessionCounts S = debugToExit(In.Modules[Prog].MM, Led);
        checkSession(S, Prog, Refs, R);
        P.OpMs += S.StopLoopMs;
        Stops += S.Stops;
        Reports += S.Reports;
        Clean += S.Clean;
        Instrs += S.VmInstrs;
        if (Traced) {
          L.fold();
          Degraded += S.Degraded;
          VmInstrs += S.VmInstrs;
        }
      }
      for (std::size_t B = 0; B < 16 && B < In.Breaks.size(); ++B) {
        OpenCounts OC;
        P.OpMs += openAt(In.Breaks[B], R, OC, Led);
        if (Traced) {
          L.fold();
          Degraded += OC.Degraded;
          VmInstrs += OC.VmInstrs;
        }
      }
      const Clock::time_point T0 = Clock::now();
      std::uint64_t Q = classifierSweep(In);
      P.OpMs += msSince(T0);
      if (Traced) {
        L.fold();
        Queries += Q;
      }
      P.Counts = {{"debug.pass_stops", Stops},
                  {"debug.pass_reports", Reports},
                  {"debug.pass_clean_reports", Clean},
                  {"debug.pass_vm_instrs", Instrs},
                  {"debug.pass_sweep_queries", Q}};
      return P;
    }, Out);
    emitCompileLayers(L, Passes, Out);
    const SpanTotals &Build = L.span("perfbench", "classifier.build");
    const SpanTotals &Sweep = L.span("perfbench", "classifier.sweep");
    const SpanTotals &Scope = L.span("perfbench", "debugger.scope");
    const SpanTotals &Resume = L.span("perfbench", "vm.resume");
    auto Mean = [](double Us, std::uint64_t N) { return N ? Us / N : 0; };
    Out["classifier.build_us"] = Mean(Build.InclusiveUs, Build.Count);
    Out["classifier.builds"] = Build.Count / Passes;
    Out["classifier.query_ns"] = Queries ? Sweep.InclusiveUs * 1000 / Queries : 0;
    Out["classifier.queries"] = Queries / Passes;
    double Hits = L.get("classifier.cache.hits"),
           Misses = L.get("classifier.cache.misses");
    Out["classifier.cache_hit_ratio"] = Hits + Misses ? Hits / (Hits + Misses) : 0;
    Out["classifier.cache_lookups"] = (Hits + Misses) / Passes;
    Out["classifier.degraded_queries"] = Degraded / Passes;
    Out["debugger.scope_us"] = Mean(Scope.InclusiveUs, Scope.Count);
    Out["vm.resume_us"] = Mean(Resume.InclusiveUs, Resume.Count);
    Out["vm.instrs_per_s"] =
        Resume.InclusiveUs > 0 ? VmInstrs / (Resume.InclusiveUs / 1e6) : 0;
    emitPerLayer(R, Out);
    return;
  }

  // Timed rounds: the next 120 seeded breakpoints are opened, then one
  // full session runs per program.  Rounds repeat the same work, so each
  // breakpoint's open time is taken as its median over the rounds.
  // Compiles are scaled by the memory gauge, the debugger's work (the
  // rest of an open, and the stop loop) by the ALU gauge (see
  // SpeedGauge).
  SpeedGauge StopGauge(SpeedGauge::Kernel::Alu);
  const std::size_t NumPrograms = benchmarkPrograms().size();
  std::vector<std::vector<double>> OpenMs(In.Breaks.size());
  double StopWallMs = 0;
  std::uint64_t StopsServed = 0;
  std::size_t NextBreak = 0;
  std::vector<SessionCounts> First(NumPrograms);
  std::vector<std::vector<std::vector<double>>> ChunkMs(NumPrograms);
  const Clock::time_point Start = Clock::now();
  for (unsigned Round = 0; Round == 0 || msSince(Start) < O.Seconds * 1000;
       ++Round) {
    for (unsigned K = 0; K < 120; ++K, ++NextBreak) {
      OpenCounts OC;
      G.tick();
      StopGauge.tick();
      const std::size_t B = NextBreak % In.Breaks.size();
      OpenMs[B].push_back(
          openAt(In.Breaks[B], R, OC, nullptr, &G, &StopGauge));
    }
    for (unsigned Prog : In.SessionOrder) {
      R.attempt();
      SessionCounts S = debugToExit(In.Modules[Prog].MM, nullptr, &StopGauge);
      if (ChunkMs[Prog].size() < S.ChunkMs.size())
        ChunkMs[Prog].resize(S.ChunkMs.size());
      for (std::size_t K = 0; K < S.ChunkMs.size(); ++K)
        ChunkMs[Prog][K].push_back(S.ChunkMs[K]);
      StopWallMs += S.StopLoopWallMs;
      StopsServed += S.Stops;
      checkSession(S, Prog, Refs, R);
      if (Round == 0)
        First[Prog] = S;
      else if (S.Stops != First[Prog].Stops ||
               S.Reports != First[Prog].Reports ||
               S.Clean != First[Prog].Clean ||
               S.VmInstrs != First[Prog].VmInstrs)
        R.fail("determinism: session counts changed between rounds");
    }
  }
  const double PeakRss = selfPeakRssMb();
  std::vector<double> Opens;
  for (const std::vector<double> &V : OpenMs)
    if (!V.empty())
      Opens.push_back(median(V));
  Latency Lat = summarize(Opens);
  // The stop loop is the host's most contention-sensitive code: bursts
  // on the shared host slow it by up to 2x, far beyond what the speed
  // gauge sees.  Each 4096-stop chunk of each session is therefore timed
  // on every pass, and its lower-quartile time stands for it -- the
  // loop's speed outside the bursts.
  double PassMs = 0;
  std::uint64_t PassStops = 0;
  for (std::size_t P = 0; P < NumPrograms; ++P) {
    PassStops += First[P].Stops;
    for (std::vector<double> &V : ChunkMs[P]) {
      std::sort(V.begin(), V.end());
      PassMs += V[V.size() / 4];
    }
  }
  const double StopsPerS = PassStops / (PassMs / 1000);
  R.note("debug.stops_per_s = " + fmt(StopsPerS) + " 1/s (" +
         std::to_string(PassStops) + " stops per pass over the 8 programs, " +
         std::to_string(ChunkMs[0][0].size()) + " passes; wall clock " +
         fmt(StopsServed / (StopWallMs / 1000)) + " 1/s)");
  R.note("debug.open_ms_p50 = " + fmt(Lat.P50) + " ms, tail = " +
         fmt(Lat.Tail) + " ms (" + Lat.TailName + ", " +
         std::to_string(Lat.Beyond) + " of " + std::to_string(Lat.N) +
         " breakpoints beyond)");

  Quality Q = measureQuality(R);
  std::uint64_t Instrs = 0, Reports = 0, Clean = 0;
  for (unsigned Prog : In.SessionOrder) {
    Instrs += First[Prog].VmInstrs;
    Reports += First[Prog].Reports;
    Clean += First[Prog].Clean;
  }
  if (Instrs != Q.ProgramInstrs || Reports != Q.Reports ||
      Clean != Q.CleanReports)
    R.fail("determinism: session counts differ from the quality sessions");
  reportEndToEnd(R, SetupS, PeakRss, StopsPerS, Lat,
                 "open at a seeded breakpoint");
  reportQuality(R, Q);
}

} // namespace perfbench
