//===- perfbench/src/Harness.cpp ------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "Toolchain.h"

#include "eval/Programs.h"
#include "fuzz/ProgramGen.h"
#include "opt/Pass.h"

#include "support/Stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>
#include <unordered_map>

using namespace sldb;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::vector<double>
inputMedians(const std::vector<std::vector<double>> &Samples) {
  std::vector<double> M;
  M.reserve(Samples.size());
  for (const std::vector<double> &S : Samples)
    M.push_back(median(S));
  return M;
}

/// Nearest-rank percentile of sorted \p V.
static double percentile(const std::vector<double> &V, double P) {
  std::size_t Rank = static_cast<std::size_t>(std::ceil(P * V.size()));
  return V[std::min(V.size(), std::max<std::size_t>(Rank, 1)) - 1];
}

Latency summarize(std::vector<double> Samples) {
  Latency L;
  L.N = Samples.size();
  if (Samples.empty())
    return L;
  std::sort(Samples.begin(), Samples.end());
  L.P50 = percentile(Samples, 0.5);
  L.Tail = L.P50;
  L.Beyond = L.N - static_cast<std::size_t>(std::ceil(0.5 * L.N));
  static const std::pair<double, const char *> Ladder[] = {
      {0.9, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}};
  for (const auto &[P, Name] : Ladder) {
    std::size_t Rank = static_cast<std::size_t>(std::ceil(P * L.N));
    if (L.N - Rank < 10)
      break;
    L.Tail = percentile(Samples, P);
    L.TailName = Name;
    L.Beyond = L.N - Rank;
  }
  return L;
}

std::uint64_t fnv1a(const std::string &S, std::uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string fmt(double V, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*g", Digits, V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Host-speed gauge
//===----------------------------------------------------------------------===//

static volatile std::uint64_t KernelSink;

/// SpeedGauge::Kernel::Memory: xorshift fill, sort, hash-map updates and
/// a dependent pointer chase over 64 KB.  About 1 ms on the host the
/// benchmark was written on (a 4-vCPU 2 GHz Xeon VM).
static void memoryKernel() {
  static std::vector<std::uint32_t> Buf(8192), Next(16384);
  std::uint64_t X = 88172645463325252ull;
  for (std::uint32_t &V : Buf) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    V = static_cast<std::uint32_t>(X);
  }
  std::sort(Buf.begin(), Buf.end());
  std::unordered_map<std::uint32_t, std::uint32_t> M;
  M.reserve(2048);
  for (std::uint32_t I = 0; I < 2048; ++I)
    M[Buf[I * 4] & 4095] += I;
  for (std::uint32_t I = 0; I < Next.size(); ++I)
    Next[I] = (I * 7919 + 13) % Next.size();
  std::uint32_t P = 0;
  for (int I = 0; I < 40000; ++I)
    P = Next[P];
  KernelSink = P + M.size() + Buf[4096];
}

/// SpeedGauge::Kernel::Alu: eight independent integer multiply-xor
/// chains in registers, no memory traffic.  About 0.5 ms on that host.
static void aluKernel() {
  std::uint64_t C[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (std::uint64_t I = 0; I < 120000; ++I)
    for (std::uint64_t &V : C)
      V = (V ^ (V >> 7)) * 0x9e3779b97f4a7c15ull + I;
  std::uint64_t Q = 0;
  for (std::uint64_t V : C)
    Q ^= V;
  KernelSink = Q;
}

/// Per-kernel constants: nominal time, sampling period, median window.
struct KernelSpec {
  double NominalMs, PeriodMs;
  std::size_t Window;
};
static KernelSpec spec(SpeedGauge::Kernel K) {
  return K == SpeedGauge::Kernel::Memory ? KernelSpec{1.0, 25, 7}
                                         : KernelSpec{0.5, 5, 3};
}

void SpeedGauge::sample() {
  const Clock::time_point T0 = Clock::now();
  if (K == Kernel::Memory)
    memoryKernel();
  else
    aluKernel();
  Recent[Count++ % MaxWindow] = msSince(T0);
  Last = Clock::now();
}

void SpeedGauge::tick() {
  if (Count == 0 || msSince(Last) >= spec(K).PeriodMs)
    sample();
}

double SpeedGauge::scale() const {
  const KernelSpec S = spec(K);
  std::vector<double> Latest;
  for (std::size_t I = 0; I < std::min(Count, S.Window); ++I)
    Latest.push_back(Recent[(Count - 1 - I) % MaxWindow]);
  return Latest.empty() ? 1 : S.NominalMs / median(Latest);
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::fail(const std::string &What) {
  ++Failed;
  std::fprintf(stdout, "# FAIL %s\n", What.c_str());
  std::fflush(stdout);
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!std::isfinite(Value)) {
    fail("metric " + Name + " is not finite");
    Value = 0;
  }
  Metrics.emplace_back(Name, "{\"value\": " + fmt(Value, 17) +
                                 ", \"unit\": \"" + Unit + "\"}");
}

void Report::count(const std::string &Name, std::uint64_t Value) {
  std::fprintf(stdout, "COUNT %s %llu\n", Name.c_str(),
               static_cast<unsigned long long>(Value));
}

void Report::note(const std::string &Line) {
  std::fprintf(stdout, "# %s\n", Line.c_str());
  std::fflush(stdout);
}

void Report::printResult() const {
  std::string S = "{\"correct\": ";
  S += correct() ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(Attempted, 1));
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  for (std::size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      S += ", ";
    S += "\"" + Metrics[I].first + "\": " + Metrics[I].second;
  }
  S += "}}";
  std::fprintf(stdout, "%s\n", S.c_str());
  std::fflush(stdout);
}

double selfPeakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Quality counts
//===----------------------------------------------------------------------===//

const std::vector<std::string> &referenceCorpus() {
  static const std::vector<std::string> Corpus = [] {
    std::vector<std::string> C;
    for (const BenchProgram &P : benchmarkPrograms())
      C.push_back(P.Source);
    for (std::uint32_t I = 0; I < 64; ++I) {
      GenOptions G;
      G.TopStmts = 10 + I % 21;
      G.Alias = I % 2 == 1;
      C.push_back(generateProgram(1 + I, G));
    }
    return C;
  }();
  return Corpus;
}

Quality measureQuality(Report &R) {
  Quality Q;
  Arena A(1 << 16);
  for (const std::string &Src : referenceCorpus())
    for (const LevelSpec *L : {&levelO2(), &levelO2ssa()}) {
      Compiled C;
      compileSource(Src, *L, &A, C);
      checkBackEnd(C, *L);
      if (!C.ok())
        R.fail("reference corpus: " + C.Error);
      else
        Q.MachineInstrs += C.machineInstrs();
      C = Compiled();
      A.reset();
    }
  for (const BenchProgram &P : benchmarkPrograms()) {
    Compiled C;
    compileSource(P.Source, levelO2(), nullptr, C);
    checkBackEnd(C, levelO2());
    if (!C.ok()) {
      R.fail(std::string("eval program ") + P.Name + ": " + C.Error);
      continue;
    }
    SessionCounts S = debugToExit(C.MM);
    ExecResult Ref = referenceRun(P.Source);
    if (!S.Finished || S.Output != Ref.outputText() ||
        S.ExitValue != Ref.ExitValue)
      R.fail(std::string("eval program ") + P.Name +
             ": debugged run differs from the interpreter");
    Q.ProgramInstrs += S.VmInstrs;
    Q.Reports += S.Reports;
    Q.CleanReports += S.Clean;
  }
  return Q;
}

void reportQuality(Report &R, const Quality &Q) {
  R.metric("machine_instrs", static_cast<double>(Q.MachineInstrs), "count");
  R.metric("program_instrs", static_cast<double>(Q.ProgramInstrs), "count");
  R.metric("current_ratio", Q.currentRatio(), "ratio");
  R.count("quality.machine_instrs", Q.MachineInstrs);
  R.count("quality.program_instrs", Q.ProgramInstrs);
  R.count("quality.reports", Q.Reports);
  R.count("quality.clean_reports", Q.CleanReports);
  R.note("quality: machine_instrs=" + std::to_string(Q.MachineInstrs) +
         " program_instrs=" + std::to_string(Q.ProgramInstrs) +
         " current_ratio=" + fmt(Q.currentRatio()) + " (" +
         std::to_string(Q.CleanReports) + "/" + std::to_string(Q.Reports) +
         " reports)");
}

//===----------------------------------------------------------------------===//
// Per-layer accounting
//===----------------------------------------------------------------------===//

void LayerLedger::fold() { foldImpl(Trace::take(), /*Captured=*/false); }

void LayerLedger::foldImpl(std::vector<TraceEvent> Events, bool Captured) {
  Seen += Events.size();
  // Spans are appended when they end, so each thread's buffer lists a
  // parent after all of its children.  A stack of finished spans turns
  // that post-order into child time: a new span adopts every finished
  // span on top of the stack that lies inside its interval.
  struct Done {
    std::uint32_t Tid;
    std::uint64_t Ts, End;
  };
  std::vector<Done> Stack;
  for (const TraceEvent &E : Events) {
    if (E.Ph != 'X')
      continue;
    const std::uint64_t End = E.Ts + E.Dur;
    std::uint64_t Children = 0;
    while (!Stack.empty() && Stack.back().Tid == E.Tid &&
           Stack.back().Ts >= E.Ts && Stack.back().End <= End) {
      Children += Stack.back().End - Stack.back().Ts;
      Stack.pop_back();
    }
    Stack.push_back({E.Tid, E.Ts, End});
    SpanTotals &T = Spans[E.Cat + "/" + E.Name];
    T.InclusiveUs += static_cast<double>(E.Dur);
    T.SelfUs += static_cast<double>(E.Dur - std::min(E.Dur, Children));
    ++T.Count;
  }
  constexpr std::size_t MaxKept = 200'000;
  std::uint32_t LastTid = 0;
  for (TraceEvent &E : Events) {
    if (Kept.size() >= MaxKept)
      break;
    if (Captured) {
      if (E.Tid != LastTid)
        ++CapturedTids;
      LastTid = E.Tid;
      E.Tid = 1'000'000 + CapturedTids;
    }
    Kept.push_back(std::move(E));
  }
}

const SpanTotals &LayerLedger::span(const std::string &Cat,
                                    const std::string &Name) const {
  static const SpanTotals None;
  auto It = Spans.find(Cat + "/" + Name);
  return It == Spans.end() ? None : It->second;
}

SpanTotals LayerLedger::category(const std::string &Cat) const {
  SpanTotals T;
  const std::string Prefix = Cat + "/";
  for (auto It = Spans.lower_bound(Prefix);
       It != Spans.end() && It->first.compare(0, Prefix.size(), Prefix) == 0;
       ++It) {
    T.InclusiveUs += It->second.InclusiveUs;
    T.SelfUs += It->second.SelfUs;
    T.Count += It->second.Count;
  }
  return T;
}

double LayerLedger::get(const std::string &Name) const {
  auto It = Sums.find(Name);
  return It == Sums.end() ? 0 : It->second;
}

bool LayerLedger::writeTrace(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << Trace::renderJson(Kept);
  return static_cast<bool>(Out);
}

CounterMark CounterMark::now() {
  auto V = [](const char *Name) { return Stats::counter(Name).value(); };
  return {V("analysis.cache.hits"), V("analysis.cache.misses"),
          V("classifier.cache.hits"), V("classifier.cache.misses")};
}

void CounterMark::addDeltaTo(LayerLedger &L) const {
  CounterMark N = now();
  L.sum("analysis.cache.hits") += static_cast<double>(N.AnalysisHits - AnalysisHits);
  L.sum("analysis.cache.misses") +=
      static_cast<double>(N.AnalysisMisses - AnalysisMisses);
  L.sum("classifier.cache.hits") +=
      static_cast<double>(N.ClassifierHits - ClassifierHits);
  L.sum("classifier.cache.misses") +=
      static_cast<double>(N.ClassifierMisses - ClassifierMisses);
}

double runTracedPasses(const Options &O, Report &R, LayerLedger &L,
                       const std::function<PassOutcome(bool Traced)> &Pass,
                       std::map<std::string, double> &Out) {
  std::vector<double> Plain, Traced;
  std::vector<std::pair<std::string, std::uint64_t>> First[2];
  const Clock::time_point Start = Clock::now();
  for (unsigned I = 0;; ++I) {
    const bool On = I % 2 == 1;
    if (msSince(Start) >= O.Seconds * 1000 && Plain.size() >= 2 &&
        Traced.size() >= 2 && !On)
      break;
    CounterMark Mark = CounterMark::now();
    if (On)
      Trace::enable();
    PassOutcome P = Pass(On);
    if (On) {
      Trace::disable();
      L.fold();
      Mark.addDeltaTo(L);
    }
    (On ? Traced : Plain).push_back(P.OpMs);
    std::vector<std::pair<std::string, std::uint64_t>> &Ref = First[On];
    if (Ref.empty()) {
      Ref = P.Counts;
      if (On)
        for (const auto &[Name, V] : P.Counts)
          R.count(Name, V);
    } else if (Ref != P.Counts) {
      R.fail(std::string("determinism: counts of ") +
             (On ? "traced" : "untraced") + " pass " + std::to_string(I) +
             " differ from the first such pass");
    }
  }
  double PlainMs = median(Plain), TracedMs = median(Traced);
  Out["trace.overhead_pct"] = PlainMs > 0 ? (TracedMs / PlainMs - 1) * 100 : 0;
  Out["trace.events"] = static_cast<double>(L.eventsSeen()) / Traced.size();
  R.note("traced run: " + std::to_string(Traced.size()) + " traced and " +
         std::to_string(Plain.size()) + " untraced passes, pass median " +
         fmt(TracedMs) + " ms traced vs " + fmt(PlainMs) + " ms untraced");
  if (!O.TraceFile.empty() && !L.writeTrace(O.TraceFile))
    R.fail("cannot write " + O.TraceFile);
  return static_cast<double>(Traced.size());
}

std::string passKey(const std::string &PassName) {
  std::string K;
  for (char C : PassName) {
    bool Keep = std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
                C == '-';
    if (Keep)
      K += C;
    else if (!K.empty() && K.back() != '-')
      K += '-';
  }
  while (!K.empty() && K.back() == '-')
    K.pop_back();
  return K;
}

const std::vector<std::string> &benchPassNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const LevelSpec *L : {&levelO2(), &levelO2ssa()})
      for (const std::string &P : pipelinePassNames(L->Opts))
        if (std::find(N.begin(), N.end(), P) == N.end())
          N.push_back(P);
    return N;
  }();
  return Names;
}

const std::vector<PerLayerSpec> &perLayerMetrics() {
  static const std::vector<PerLayerSpec> Specs = [] {
    std::vector<PerLayerSpec> S = {
        {"frontend.ms", "ms"},
        {"frontend.mb_per_s", "MB/s"},
        {"irgen.ms", "ms"},
        {"irgen.ir_instrs", "count"},
        {"opt.ms", "ms"},
        {"opt.ir_instrs_out", "count"},
    };
    for (const std::string &P : benchPassNames()) {
      S.push_back({"opt." + passKey(P) + ".ms", "ms"});
      S.push_back({"opt." + passKey(P) + ".changed", "count"});
    }
    const std::vector<PerLayerSpec> Rest = {
        {"analysis.ms", "ms"},
        {"analysis.cache_hit_ratio", "ratio"},
        {"analysis.cache_lookups", "count"},
        {"isel.ms", "ms"},
        {"sched.ms", "ms"},
        {"regalloc.ms", "ms"},
        {"classifier.build_us", "us"},
        {"classifier.builds", "count"},
        {"classifier.query_ns", "ns"},
        {"classifier.queries", "count"},
        {"classifier.cache_hit_ratio", "ratio"},
        {"classifier.cache_lookups", "count"},
        {"classifier.degraded_queries", "count"},
        {"debugger.scope_us", "us"},
        {"vm.resume_us", "us"},
        {"vm.instrs_per_s", "1/s"},
        {"service.rt.load_us", "us"},
        {"service.rt.classify_us", "us"},
        {"service.rt.classify-all_us", "us"},
        {"service.rt.explain_us", "us"},
        {"service.rt.step_us", "us"},
        {"service.handler.load_us", "us"},
        {"service.handler.classify_us", "us"},
        {"service.handler.classify-all_us", "us"},
        {"service.handler.explain_us", "us"},
        {"service.handler.step_us", "us"},
        {"service.transport_share", "ratio"},
        {"campaign.unit_ms", "ms"},
        {"campaign.stops", "count"},
        {"campaign.observations", "count"},
        {"trace.overhead_pct", "%"},
        {"trace.events", "count"},
    };
    S.insert(S.end(), Rest.begin(), Rest.end());
    return S;
  }();
  return Specs;
}

void emitCompileLayers(const LayerLedger &L, double Passes,
                       std::map<std::string, double> &Out) {
  auto PerPass = [&](double V) { return V / Passes; };
  auto SelfMs = [&](const char *Name) {
    return PerPass(L.span("perfbench", Name).SelfUs / 1000.0);
  };
  Out["frontend.ms"] = SelfMs("frontend");
  double FrontendS = L.span("perfbench", "frontend").SelfUs / 1e6;
  Out["frontend.mb_per_s"] =
      FrontendS > 0 ? L.get("frontend.bytes") / 1e6 / FrontendS : 0;
  Out["irgen.ms"] = SelfMs("irgen");
  Out["irgen.ir_instrs"] = PerPass(L.get("irgen.ir_instrs"));
  // The opt layer: the benchmark's span around runPipelineEx, the
  // pipeline driver's own span, and every pass, minus the analyses the
  // passes computed on demand (reported as analysis.ms).
  Out["opt.ms"] = PerPass((L.span("perfbench", "opt").SelfUs +
                           L.span("pipeline", "runPipeline").SelfUs +
                           L.category("pass").SelfUs) /
                          1000.0);
  Out["opt.ir_instrs_out"] = PerPass(L.get("opt.ir_instrs_out"));
  for (const std::string &P : benchPassNames()) {
    const std::string K = "opt." + passKey(P);
    Out[K + ".ms"] = PerPass(L.get(K + ".ms"));
    Out[K + ".changed"] = PerPass(L.get(K + ".changed"));
  }
  Out["analysis.ms"] = PerPass(L.category("analysis").SelfUs / 1000.0);
  double Hits = L.get("analysis.cache.hits"),
         Misses = L.get("analysis.cache.misses");
  Out["analysis.cache_hit_ratio"] = Hits + Misses ? Hits / (Hits + Misses) : 0;
  Out["analysis.cache_lookups"] = PerPass(Hits + Misses);
  Out["isel.ms"] = SelfMs("isel");
  Out["sched.ms"] = SelfMs("sched");
  Out["regalloc.ms"] = SelfMs("regalloc");
}

void emitPerLayer(Report &R, const std::map<std::string, double> &Values) {
  for (const PerLayerSpec &S : perLayerMetrics()) {
    auto It = Values.find(S.Name);
    R.metric(S.Name, It == Values.end() ? 0 : It->second, S.Unit);
  }
}

} // namespace perfbench
