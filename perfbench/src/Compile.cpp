//===- perfbench/src/Compile.cpp - The compile workload --------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `compile`: a seeded draw of generated programs (half with the aliasing
/// grammar, top-level statement counts spread over 10-30) with the 8 eval
/// programs mixed in, compiled one after another from source to machine
/// code at O2 and at O2ssa.  Frontend, opt and codegen do all the work.
///
/// Correctness, outside the timed sections: every module's VM output and
/// exit value must equal the interpreter's on its unoptimized IR.
///
//===----------------------------------------------------------------------===//

#include "Toolchain.h"
#include "Workloads.h"

#include "eval/Programs.h"
#include "fuzz/ProgramGen.h"
#include "vm/Machine.h"

using namespace sldb;

namespace perfbench {
namespace {

/// Every 25th module of the sequence is an eval program.
constexpr unsigned EvalEvery = 25;

struct Corpus {
  std::vector<std::string> Generated;
  std::vector<unsigned> EvalOrder; ///< Seeded permutation of the 8.

  /// The \p K-th source of the compile sequence (wraps around).
  const std::string &source(std::size_t K, int &EvalIndex) const {
    if (K % EvalEvery == 0) {
      EvalIndex = static_cast<int>(EvalOrder[(K / EvalEvery) % EvalOrder.size()]);
      return EvalSources[EvalIndex];
    }
    EvalIndex = -1;
    std::size_t G = K - K / EvalEvery - 1;
    return Generated[G % Generated.size()];
  }

  std::vector<std::string> EvalSources;
};

Corpus makeCorpus(std::uint64_t Seed, unsigned NumGenerated) {
  Corpus C;
  Rng G(Seed * 0x100000001b3ull + 11);
  C.Generated.reserve(NumGenerated);
  for (unsigned I = 0; I < NumGenerated; ++I) {
    GenOptions Opts;
    Opts.TopStmts = 10 + I % 21;
    Opts.Alias = (I / 21) % 2 == 1;
    C.Generated.push_back(
        generateProgram(static_cast<std::uint32_t>(G.next()), Opts));
  }
  for (const BenchProgram &P : benchmarkPrograms())
    C.EvalSources.push_back(P.Source);
  for (unsigned I = 0; I < C.EvalSources.size(); ++I)
    C.EvalOrder.push_back(I);
  for (unsigned I = static_cast<unsigned>(C.EvalOrder.size()); I > 1; --I)
    std::swap(C.EvalOrder[I - 1], C.EvalOrder[G.below(I)]);
  return C;
}

/// Compiles \p Src at \p Level (timed) and checks the machine code
/// against \p Ref (untimed).  Returns the compile time in ms.
double compileAndCheck(const std::string &Src, const LevelSpec &Level,
                       const ExecResult &Ref, Arena &A, Report &R,
                       std::uint64_t &MachineInstrs,
                       LayerLedger *Ledger = nullptr) {
  R.attempt();
  double Ms;
  {
    Compiled C;
    Clock::time_point T0 = Clock::now();
    compileSource(Src, Level, &A, C, Ledger);
    Ms = msSince(T0);
    checkBackEnd(C, Level);
    if (!C.ok()) {
      R.fail(std::string("compile at ") + Level.Name + ": " + C.Error);
    } else {
      MachineInstrs += C.machineInstrs();
      Machine M(C.MM);
      StopReason SR = M.run();
      if (Ref.Trapped || SR != StopReason::Exited ||
          M.outputText() != Ref.outputText() ||
          M.exitValue() != Ref.ExitValue)
        R.fail(std::string("module at ") + Level.Name +
               " differs from the interpreter");
    }
  }
  A.reset();
  return Ms;
}

} // namespace

void runCompileWorkload(const Options &O, Report &R) {
  // Enough distinct programs that a 60 s run never wraps around.
  const unsigned NumGenerated =
      static_cast<unsigned>(std::min(40000.0, 500 + O.Seconds * 500));
  Corpus C;
  const double SetupS =
      measureSetup(R, [&] { C = makeCorpus(O.Seed, NumGenerated); });
  SpeedGauge G;
  std::vector<ExecResult> EvalRefs;
  for (const std::string &Src : C.EvalSources)
    EvalRefs.push_back(referenceRun(Src));

  Arena A(1 << 16);
  const LevelSpec *Levels[] = {&levelO2(), &levelO2ssa()};

  if (O.Traced) {
    LayerLedger L;
    std::map<std::string, double> Out;
    // The fixed pass: the first 100 modules of the sequence.
    std::vector<ExecResult> Refs;
    for (std::size_t K = 0; K < 100; ++K) {
      int E;
      const std::string &Src = C.source(K, E);
      Refs.push_back(E >= 0 ? EvalRefs[E] : referenceRun(Src));
    }
    double Passes = runTracedPasses(O, R, L, [&](bool Traced) {
      PassOutcome P;
      std::uint64_t Instrs = 0;
      std::vector<double> ChangedBefore;
      for (const std::string &Pn : benchPassNames())
        ChangedBefore.push_back(L.get("opt." + passKey(Pn) + ".changed"));
      for (std::size_t K = 0; K < 100; ++K) {
        int E;
        const std::string &Src = C.source(K, E);
        for (const LevelSpec *Lv : Levels)
          P.OpMs += compileAndCheck(Src, *Lv, Refs[K], A, R, Instrs,
                                    Traced ? &L : nullptr);
        if (Traced)
          L.fold();
      }
      P.Counts.emplace_back("compile.pass_machine_instrs", Instrs);
      if (Traced)
        for (std::size_t I = 0; I < benchPassNames().size(); ++I) {
          const std::string K = "opt." + passKey(benchPassNames()[I]) +
                                ".changed";
          P.Counts.emplace_back(
              K, static_cast<std::uint64_t>(L.get(K) - ChangedBefore[I]));
        }
      return P;
    }, Out);
    emitCompileLayers(L, Passes, Out);
    emitPerLayer(R, Out);
    return;
  }

  // Untimed warm-up: one module per level, so lazy statics are filled.
  {
    std::uint64_t Unused = 0;
    int E;
    const std::string &Src = C.source(1, E);
    ExecResult Ref = referenceRun(Src);
    for (const LevelSpec *Lv : Levels)
      compileAndCheck(Src, *Lv, Ref, A, R, Unused);
  }

  std::vector<double> Samples, PerLevel[2];
  std::uint64_t Instrs = 0;
  double BusyMs = 0, WallMs = 0;
  CounterMark Mark = CounterMark::now();
  const Clock::time_point Start = Clock::now();
  for (std::size_t K = 0; msSince(Start) < O.Seconds * 1000; ++K) {
    int E;
    const std::string &Src = C.source(K, E);
    ExecResult Ref = E >= 0 ? EvalRefs[E] : referenceRun(Src);
    for (int Lv = 0; Lv < 2; ++Lv) {
      G.tick();
      double Wall = compileAndCheck(Src, *Levels[Lv], Ref, A, R, Instrs);
      double Ms = Wall * G.scale();
      Samples.push_back(Ms);
      PerLevel[Lv].push_back(Ms);
      BusyMs += Ms;
      WallMs += Wall;
    }
  }
  const double PeakRss = selfPeakRssMb();
  LayerLedger Cache;
  Mark.addDeltaTo(Cache);

  Latency Lat = summarize(Samples);
  const double Modules = static_cast<double>(Samples.size());
  R.note("compile.modules_per_s = " + fmt(Modules / (BusyMs / 1000)) +
         " 1/s over " + std::to_string(Samples.size()) + " module compiles");
  R.note("compile.module_ms_p50 = " + fmt(Lat.P50) + " ms");
  R.note("wall clock: " + fmt(Modules / (WallMs / 1000)) +
         " modules/s; host speed factor " + fmt(BusyMs / WallMs) + " over " +
         std::to_string(G.samples()) + " gauge samples");
  R.note("compile.module_ms_tail = " + fmt(Lat.Tail) + " ms (" + Lat.TailName +
         ", " + std::to_string(Lat.Beyond) + " of " + std::to_string(Lat.N) +
         " samples beyond)");
  R.note("compile.module_ms_p50 at O2 = " + fmt(median(PerLevel[0])) +
         " ms, at O2ssa = " + fmt(median(PerLevel[1])) + " ms");
  double Hits = Cache.get("analysis.cache.hits"),
         Misses = Cache.get("analysis.cache.misses");
  R.note("analysis.cache_hit_ratio = " +
         fmt(Hits + Misses ? Hits / (Hits + Misses) : 0) + " (base: " +
         fmt(Hits + Misses, 12) + " analysis lookups, " + fmt(Hits, 12) +
         " hits)");
  R.note("compile.machine_instrs (drawn corpus, not gated) = " +
         std::to_string(Instrs));

  Quality Q = measureQuality(R);
  reportEndToEnd(R, SetupS, PeakRss, Modules / (BusyMs / 1000), Lat,
                 "module compile");
  reportQuality(R, Q);
}

} // namespace perfbench
