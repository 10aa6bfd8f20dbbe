//===- perfbench/src/Harness.h - Shared benchmark machinery -----*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the clock,
/// the seeded input generator, latency summaries, the result report
/// (human-readable lines plus the final JSON object), the quality counts
/// measured on a fixed reference corpus, and the per-layer accounting of
/// the traced run (span self time folded out of support/Trace).
///
/// Every layer is measured from outside: the benchmark's own TraceSpans
/// wrap the calls into each layer's public functions, and the spans and
/// counters the program already emits (pipeline, pass, analysis,
/// campaign.unit, *.cache.*) ride along.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "support/Trace.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  std::string Sldbd;     ///< Path of the sldbd binary (service workload).
  std::string TraceFile; ///< Chrome-trace output of the traced run.
};

/// splitmix64: derives every workload input from the --seed argument.
struct Rng {
  std::uint64_t S;
  explicit Rng(std::uint64_t Seed) : S(Seed) {}
  std::uint64_t next() {
    std::uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  std::uint32_t below(std::uint32_t N) {
    return N ? static_cast<std::uint32_t>(next() % N) : 0;
  }
};

/// Host-speed normalization.  The shared host this benchmark runs on
/// changes speed by 25% to 2x within seconds (other tenants), which would
/// swamp any change worth measuring.  The gauge runs a fixed reference
/// kernel (benchmark code only, nothing from sldb) on the same core
/// between timed operations, and scale() converts a wall time into
/// "reference ms": the time the operation would have taken with the
/// kernel at its nominal speed.  The human-readable lines also print wall
/// time.
///
/// Which kernel tracks an operation best was measured per operation:
///  * Memory (xorshift fill, sort, hash-map updates, a 64 KB pointer
///    chase; 1 ms, sampled at most every 25 ms, median of the last 7)
///    tracks the compiler, opens, service round trips and campaign seeds:
///    it brings the run-to-run spread of compile throughput from 20% to
///    2-3%;
///  * Alu (eight independent multiply-xor chains; 0.5 ms, at most every
///    5 ms, median of the last 3) tracks the debugger's stop loop, whose
///    speed swings up to 2x in contention bursts: the loop's per-round
///    time correlates 0.84 with it at an elasticity of 1.06, against at
///    most 0.67 for the memory kernel's parts.
class SpeedGauge {
public:
  enum class Kernel { Memory, Alu };

  explicit SpeedGauge(Kernel K = Kernel::Memory) : K(K) {}

  /// Samples the kernel when the last sample is older than the kernel's
  /// sampling period.  Call between timed operations.
  void tick();
  /// Samples the kernel unconditionally.
  void sample();
  /// Factor that turns wall ms into reference ms at the current speed
  /// (nominal time over the median of the recent kernel samples).
  double scale() const;
  std::size_t samples() const { return Count; }

private:
  static constexpr unsigned MaxWindow = 7;
  Kernel K;
  double Recent[MaxWindow] = {};
  std::size_t Count = 0;
  Clock::time_point Last{};
};

/// Median and tail of a latency sample set.  The tail is the highest of
/// p90 / p99 / p99.9 that has at least ten samples beyond it.
struct Latency {
  double P50 = 0;
  double Tail = 0;
  std::string TailName = "p50";
  std::size_t N = 0;
  std::size_t Beyond = 0; ///< Samples above the tail percentile.
};
Latency summarize(std::vector<double> Samples);

/// Median of \p V (0 for an empty set).
double median(std::vector<double> V);

/// Per-input medians: element I is the median of \p Samples[I], the
/// repeated timings of input I.  Repeating the same inputs and taking
/// each one's median drops the transient slowdowns of a shared host.
std::vector<double> inputMedians(const std::vector<std::vector<double>> &Samples);

/// FNV-1a, for response and verdict digests.
std::uint64_t fnv1a(const std::string &S, std::uint64_t H = 1469598103934665603ull);

/// Collects the run's outcome and prints it.  Human-readable lines go to
/// stdout as they come; the last line is the JSON object the benchmark
/// contract asks for.
class Report {
public:
  /// One operation of the workload was attempted; a failure counts it as
  /// failed and makes the whole run incorrect.
  void attempt(std::uint64_t N = 1) { Attempted += N; }
  void fail(const std::string &What);

  /// A metric of the final JSON object.
  void metric(const std::string &Name, double Value, const std::string &Unit);

  /// A deterministic count: printed as a `COUNT name value` line, which
  /// run.py compares against the previous run of the same build and seed.
  void count(const std::string &Name, std::uint64_t Value);

  /// A human-readable line (`# ...`).
  void note(const std::string &Line);

  bool correct() const { return Failed == 0; }
  void printResult() const;

private:
  std::uint64_t Attempted = 0, Failed = 0;
  std::vector<std::pair<std::string, std::string>> Metrics; ///< Rendered.
};

std::string fmt(double V, int Digits = 6);

/// Peak resident set of this process, MB (getrusage).
double selfPeakRssMb();

/// The quality counts every workload reports: static machine code size
/// of the reference corpus, dynamic instructions of the eval programs,
/// and the share of variable reports shown without a warning.  The
/// reference corpus is fixed (independent of --seed), so these repeat
/// exactly on every run of the same code.
struct Quality {
  std::uint64_t MachineInstrs = 0;
  std::uint64_t ProgramInstrs = 0;
  std::uint64_t Reports = 0;
  std::uint64_t CleanReports = 0; ///< Current, or endangered but Recoverable.
  double currentRatio() const {
    return Reports ? static_cast<double>(CleanReports) / Reports : 0;
  }
};

/// Source programs of the fixed reference corpus: the 8 eval programs and
/// 64 generated programs from fixed seeds.
const std::vector<std::string> &referenceCorpus();

/// Compiles the reference corpus at O2 and O2ssa (machine code size) and
/// debugs every eval program at O2 to exit with a scope report at every
/// stop.  Failures are reported to \p R.
Quality measureQuality(Report &R);

/// Emits the quality metrics and their guard counts.
void reportQuality(Report &R, const Quality &Q);

//===----------------------------------------------------------------------===//
// Traced run: per-layer accounting
//===----------------------------------------------------------------------===//

/// Per-span-name totals folded out of trace events: inclusive time,
/// self time (minus the time covered by child spans) and span count.
struct SpanTotals {
  double InclusiveUs = 0;
  double SelfUs = 0;
  std::uint64_t Count = 0;
};

/// Accumulates the traced run: span totals keyed by "cat/name", named
/// sums for counters the workload computes itself, and a bounded copy of
/// the raw events for the Chrome-trace file.
class LayerLedger {
public:
  /// Takes every buffered trace event and folds it in.  Call at
  /// top-level operation boundaries, so no open span straddles a fold.
  void fold();

  /// Folds events captured apart from the collector (a campaign's
  /// per-unit TraceCapture, timestamps rebased to the unit start).  They
  /// keep their nesting but get a thread id of their own in the trace
  /// file, so they never interleave with the collector's timeline.
  void foldCaptured(std::vector<sldb::TraceEvent> Events) {
    foldImpl(std::move(Events), /*Captured=*/true);
  }

  const SpanTotals &span(const std::string &Cat, const std::string &Name) const;
  /// Sum over every span of category \p Cat.
  SpanTotals category(const std::string &Cat) const;

  /// Named accumulators for counts and times measured by the workload.
  double &sum(const std::string &Name) { return Sums[Name]; }
  double get(const std::string &Name) const;

  /// Writes the retained events as Chrome trace JSON.  Returns false on
  /// I/O failure.
  bool writeTrace(const std::string &Path) const;

  std::uint64_t eventsSeen() const { return Seen; }

private:
  void foldImpl(std::vector<sldb::TraceEvent> Events, bool Captured);

  std::map<std::string, SpanTotals> Spans;
  std::map<std::string, double> Sums;
  std::vector<sldb::TraceEvent> Kept;
  std::uint64_t Seen = 0;
  std::uint32_t CapturedTids = 0;
};

/// Cache counters of the Stats registry, read as deltas around traced
/// passes (the registry is process-wide and never reset here).
struct CounterMark {
  std::uint64_t AnalysisHits, AnalysisMisses, ClassifierHits,
      ClassifierMisses;
  static CounterMark now();
  /// Adds the counts since this mark to \p L's "analysis.cache.*" and
  /// "classifier.cache.*" sums.
  void addDeltaTo(LayerLedger &L) const;
};

/// One pass of a traced run: the time of its timed operations and the
/// counts that must repeat exactly on every pass.
struct PassOutcome {
  double OpMs = 0;
  std::vector<std::pair<std::string, std::uint64_t>> Counts;
};

/// Drives a traced run: the same fixed pass of work runs alternately
/// untraced and traced until --seconds are used (at least two of each).
/// Traced passes run with Trace enabled and are folded into \p L after
/// each pass; counts are checked pass against pass (a mismatch fails the
/// run) and printed as COUNT lines.  Sets trace.overhead_pct (median
/// traced against median untraced pass time, wall clock: the passes
/// alternate, so host drift cancels, whereas a gauge sampled around each
/// pass reads the cache state the pass leaves behind) and trace.events in
/// \p Out.
/// Returns the number of traced passes, the divisor for per-pass layer
/// metrics.
double runTracedPasses(const Options &O, Report &R, LayerLedger &L,
                       const std::function<PassOutcome(bool Traced)> &Pass,
                       std::map<std::string, double> &Out);

/// The per-layer metrics of the traced run, in BENCHMARK.json order.
/// Each workload fills what it exercises; the rest are reported as 0
/// (the layer did no work on that workload).
struct PerLayerSpec {
  std::string Name;
  std::string Unit;
};
const std::vector<PerLayerSpec> &perLayerMetrics();

/// The metric-name form of a pass name ("redundancy-elimination(cse)" ->
/// "redundancy-elimination-cse").
std::string passKey(const std::string &PassName);

/// Pass names of the O2 and O2ssa pipelines, deduplicated, in order.
const std::vector<std::string> &benchPassNames();

/// Fills the compile-path layer metrics (frontend, irgen, opt, analysis,
/// codegen) from \p L, normalized per traced pass.  Shared by every
/// workload that compiles in-process.
void emitCompileLayers(const LayerLedger &L, double Passes,
                       std::map<std::string, double> &Out);

/// Prints every per-layer metric (missing ones as 0) as the run's
/// metrics.
void emitPerLayer(Report &R, const std::map<std::string, double> &Values);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
