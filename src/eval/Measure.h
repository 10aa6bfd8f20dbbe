//===- eval/Measure.h - Paper-evaluation measurements -----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement harness behind the paper's evaluation artifacts:
///
///  * Table 2  — program sizes, breakpoints, variables in scope;
///  * Table 3  — code quality (substituted: dynamic instruction count of
///               optimized vs. unoptimized code on the R3K simulator);
///  * Table 4  — percentage of endangered variables that are suspect;
///  * Figure 5 — average number of local variables per breakpoint in each
///               class (uninitialized / current / endangered /
///               nonresident), with and without register allocation.
///
/// Methodology per the paper §4: "counting the number of variables in
/// each category, for each possible breakpoint in the source program, and
/// averaging the results by the number of breakpoints" (static, all
/// breakpoints equally likely).
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_EVAL_MEASURE_H
#define SLDB_EVAL_MEASURE_H

#include "eval/Levels.h"
#include "eval/Programs.h"
#include "opt/Pass.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sldb {

struct Classification;

/// Table 2 row.
struct SourceStats {
  std::string Name;
  unsigned LinesOfCode = 0;
  unsigned Functions = 0;
  unsigned Breakpoints = 0;
  double BreakpointsPerFunction = 0.0;
  double VarsPerBreakpoint = 0.0; ///< Locals in scope, averaged.
};

SourceStats sourceStats(const BenchProgram &P);

/// Figure 5 / Table 4 row: average number of local variables per
/// breakpoint in each class.  "Current" includes values shown via
/// recovery (the dead reach is killed by the surviving expression,
/// paper §2.5).
struct ClassAverages {
  double Uninitialized = 0.0;
  double Current = 0.0;
  double Recovered = 0.0; ///< Subset of Current shown via recovery (§2.5).
  double Noncurrent = 0.0;
  double Suspect = 0.0;
  double Nonresident = 0.0;
  unsigned Breakpoints = 0;

  double endangered() const { return Noncurrent + Suspect; }
  /// Table 4: share of endangered variables that are suspect (percent).
  double pctSuspectOfEndangered() const {
    double E = endangered();
    return E > 0 ? 100.0 * Suspect / E : 0.0;
  }
};

/// Runs the classifier over every (breakpoint, in-scope local) pair.
/// \p Promote selects the Figure 5(b) (true) or 5(a) (false)
/// configuration.
ClassAverages measureClassification(const BenchProgram &P,
                                    const OptOptions &Opts, bool Promote,
                                    bool EnableRecovery = true);

/// Measures a whole corpus, fanning the per-program measurements across
/// \p Jobs worker threads (0 = all hardware cores).  Results are in
/// corpus order and bit-identical to calling measureClassification
/// serially per program — each program's pipeline, classifier, and
/// averaging run thread-confined on one worker.
std::vector<ClassAverages>
measureClassificationAll(const std::vector<BenchProgram> &Corpus,
                         const OptOptions &Opts, bool Promote,
                         bool EnableRecovery = true, unsigned Jobs = 1);

/// Debuggability coverage at one optimization level: *integer* counts of
/// (breakpoint, in-scope variable) classification points per Figure 1
/// class, summed over a corpus.  The counts (unlike the per-breakpoint
/// averages above) diff exactly, so the rendered report is golden-tested
/// (tests/golden/coverage.txt).
struct CoverageCounts {
  std::string Level;        ///< Level label (eval/Levels.h name table).
  std::uint64_t Points = 0; ///< (breakpoint, variable) pairs classified.
  std::uint64_t Uninitialized = 0;
  std::uint64_t Nonresident = 0;
  std::uint64_t Noncurrent = 0;
  std::uint64_t Suspect = 0;
  std::uint64_t Current = 0;
  std::uint64_t Recovered = 0; ///< Points shown via recovery (paper §2.5).

  /// Quality metrics beyond the Figure-1 class counts: line coverage
  /// (how much of the statement/line table survived optimization) and
  /// the degraded subset (points classified by a classifier that failed
  /// annotation verification — covered conservatively, never
  /// accurately).
  std::uint64_t SrcStmts = 0;  ///< Statement-table rows (source lines).
  std::uint64_t CodeStmts = 0; ///< Rows that kept a code address.
  std::uint64_t Degraded = 0;  ///< Points classified in degraded mode.

  /// Tallies one classified point: its Figure-1 class, plus the
  /// recovered and degraded subsets.
  void count(const Classification &R);

  std::uint64_t endangered() const { return Noncurrent + Suspect; }
  /// Share of points the debugger can show truthfully without a warning:
  /// current (including the recovered subset).
  double pctDebuggable() const {
    return Points ? 100.0 * static_cast<double>(Current) /
                        static_cast<double>(Points)
                  : 0.0;
  }
  /// Share of source statements still present in the line table.
  double pctLineCoverage() const {
    return SrcStmts ? 100.0 * static_cast<double>(CodeStmts) /
                          static_cast<double>(SrcStmts)
                    : 0.0;
  }

  /// Sums another row's counts into this one (Level label is kept).
  void add(const CoverageCounts &O) {
    Points += O.Points;
    Uninitialized += O.Uninitialized;
    Nonresident += O.Nonresident;
    Noncurrent += O.Noncurrent;
    Suspect += O.Suspect;
    Current += O.Current;
    Recovered += O.Recovered;
    SrcStmts += O.SrcStmts;
    CodeStmts += O.CodeStmts;
    Degraded += O.Degraded;
  }
};

/// Knobs orthogonal to the level itself.
struct CoverageOptions {
  /// Schedule instructions in codegen.  The cross-level sweep turns this
  /// off so its statically-classified builds are the same builds the
  /// lockstep oracle judges (fuzz/Oracle.cpp compiles with Schedule off).
  bool Schedule = true;

  /// Force every classifier into degraded mode (the annotation-failure
  /// fail-safe): verdicts must stay conservative, so the counts land in
  /// Degraded and never in Current/Recovered.
  bool DegradeAll = false;
};

/// Classifies every (breakpoint, in-scope local) point of the corpus
/// under one level of the pipeline lattice and sums the per-class
/// counts.
CoverageCounts measureCoverage(const std::vector<BenchProgram> &Corpus,
                               const LevelSpec &Level,
                               const CoverageOptions &MO = {});

/// Renders coverage rows as the fixed-width report golden-tested in
/// tests/golden/coverage.txt (one line per optimization level).
std::string renderCoverageReport(const std::vector<CoverageCounts> &Rows);

/// Renders the extended quality-metrics table (line coverage, variable
/// availability, degraded share) for a full level sweep; golden-tested
/// under tests/golden/crosslevel/.
std::string renderLevelReport(const std::vector<CoverageCounts> &Rows);

/// Measured conservatism at one level, from lockstep ground truth: of
/// the warning/refusal verdicts (Noncurrent, Suspect, Nonresident), how
/// many observations had the expected value sitting in the variable's
/// storage home anyway — the verdict was honest but conservative, and a
/// cleverer debugger could have shown the value.
struct ConservatismCounts {
  std::string Level;
  std::uint64_t Noncurrent = 0, NoncurrentMatched = 0;
  std::uint64_t Suspect = 0, SuspectMatched = 0;
  std::uint64_t Nonresident = 0, NonresidentMatched = 0;

  std::uint64_t total() const { return Noncurrent + Suspect + Nonresident; }
  std::uint64_t matched() const {
    return NoncurrentMatched + SuspectMatched + NonresidentMatched;
  }
  /// The conservatism rate: share of conservative verdicts whose value
  /// was actually recoverable per ground truth (percent).
  double rate() const {
    return total() ? 100.0 * static_cast<double>(matched()) /
                         static_cast<double>(total())
                   : 0.0;
  }

  /// Sums another row's counts into this one (Level label is kept).
  void add(const ConservatismCounts &O) {
    Noncurrent += O.Noncurrent;
    NoncurrentMatched += O.NoncurrentMatched;
    Suspect += O.Suspect;
    SuspectMatched += O.SuspectMatched;
    Nonresident += O.Nonresident;
    NonresidentMatched += O.NonresidentMatched;
  }
};

/// Renders conservatism rows as a fixed-width table (one line per
/// level); golden-tested under tests/golden/crosslevel/.
std::string
renderConservatismReport(const std::vector<ConservatismCounts> &Rows);

/// Table 3 substitute: dynamic instruction counts on the R3K simulator.
struct CodeQuality {
  std::uint64_t InstrUnoptimized = 0;
  std::uint64_t InstrOptimized = 0;
  bool OutputsMatch = false;
  double ratio() const {
    return InstrUnoptimized
               ? static_cast<double>(InstrOptimized) / InstrUnoptimized
               : 0.0;
  }
};

/// \p Fuel bounds both simulator runs (Machine step budget); a
/// fuel-exhausted run reports OutputsMatch = false rather than spinning.
CodeQuality measureCodeQuality(const BenchProgram &P,
                               std::uint64_t Fuel = 50'000'000);

} // namespace sldb

#endif // SLDB_EVAL_MEASURE_H
