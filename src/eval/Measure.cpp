//===- eval/Measure.cpp ---------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "eval/Measure.h"

#include "core/Classifier.h"
#include "eval/Compile.h"
#include "ir/IRGen.h"
#include "support/Casting.h"
#include "support/ThreadPool.h"
#include "vm/Machine.h"

using namespace sldb;

namespace {

/// Benchmark sources ship with the library; failure is a library bug.
[[noreturn]] void benchProgramFailed(const BenchProgram &P,
                                     const std::string &Why) {
  sldb_unreachable(("benchmark program failed to compile: " +
                    std::string(P.Name) + "\n" + Why)
                       .c_str());
}

CompiledModule compileBench(const BenchProgram &P, const OptOptions &Opts,
                            const CodegenOptions &CG) {
  Expected<CompiledModule> C = compileModule(P.Source, Opts, CG);
  if (!C)
    benchProgramFailed(P, C.status().str());
  return std::move(*C);
}

/// Classifies every (breakpoint, in-scope local) point of \p MM into
/// \p CC: the paper's §4 methodology, all breakpoints equally likely.
void tally(const MachineModule &MM, CoverageCounts &CC, bool EnableRecovery,
           bool DegradeAll = false) {
  for (const MachineFunction &MF : MM.Funcs) {
    Classifier C(MF, *MM.Info, EnableRecovery);
    if (DegradeAll)
      C.degradeAllVariables();
    const FuncInfo &FI = MM.Info->func(MF.Id);
    CC.SrcStmts += MF.StmtAddr.size();
    std::vector<Classification> Cs;
    for (StmtId S = 0; S < MF.StmtAddr.size(); ++S) {
      if (MF.StmtAddr[S] < 0)
        continue; // The statement emitted no code (paper: code location).
      ++CC.CodeStmts;
      C.classifyAll(static_cast<std::uint32_t>(MF.StmtAddr[S]),
                    FI.Stmts[S].ScopeVars, Cs);
      for (const Classification &R : Cs)
        CC.count(R);
    }
  }
}

} // namespace

void CoverageCounts::count(const Classification &R) {
  ++Points;
  switch (R.Kind) {
  case VarClass::Uninitialized:
    ++Uninitialized;
    break;
  case VarClass::Nonresident:
    ++Nonresident;
    break;
  case VarClass::Noncurrent:
    ++Noncurrent;
    break;
  case VarClass::Suspect:
    ++Suspect;
    break;
  case VarClass::Current:
    ++Current;
    break;
  }
  Recovered += R.Recoverable;
  Degraded += R.Degraded;
}

SourceStats sldb::sourceStats(const BenchProgram &P) {
  SourceStats S;
  S.Name = P.Name;

  // Count non-blank source lines.
  std::string_view Src = P.Source;
  bool LineHasText = false;
  for (char C : Src) {
    if (C == '\n') {
      if (LineHasText)
        ++S.LinesOfCode;
      LineHasText = false;
    } else if (C != ' ' && C != '\t') {
      LineHasText = true;
    }
  }
  if (LineHasText)
    ++S.LinesOfCode;

  DiagnosticEngine Diags;
  auto M = compileToIR(P.Source, Diags);
  if (!M)
    benchProgramFailed(P, Diags.str());
  S.Functions = static_cast<unsigned>(M->Info->Funcs.size());
  std::uint64_t VarSum = 0;
  for (const FuncInfo &F : M->Info->Funcs) {
    S.Breakpoints += static_cast<unsigned>(F.Stmts.size());
    for (const StmtInfo &St : F.Stmts)
      VarSum += St.ScopeVars.size();
  }
  S.BreakpointsPerFunction =
      S.Functions ? static_cast<double>(S.Breakpoints) / S.Functions : 0.0;
  S.VarsPerBreakpoint =
      S.Breakpoints ? static_cast<double>(VarSum) / S.Breakpoints : 0.0;
  return S;
}

ClassAverages sldb::measureClassification(const BenchProgram &P,
                                          const OptOptions &Opts,
                                          bool Promote,
                                          bool EnableRecovery) {
  CoverageCounts CC;
  tally(compileBench(P, Opts, {Promote}).MM, CC, EnableRecovery);
  ClassAverages A;
  A.Breakpoints = static_cast<unsigned>(CC.CodeStmts);
  if (A.Breakpoints == 0)
    return A;
  double N = A.Breakpoints;
  A.Uninitialized = CC.Uninitialized / N;
  A.Nonresident = CC.Nonresident / N;
  A.Noncurrent = CC.Noncurrent / N;
  A.Suspect = CC.Suspect / N;
  A.Current = CC.Current / N;
  A.Recovered = CC.Recovered / N;
  return A;
}

std::vector<ClassAverages>
sldb::measureClassificationAll(const std::vector<BenchProgram> &Corpus,
                               const OptOptions &Opts, bool Promote,
                               bool EnableRecovery, unsigned Jobs) {
  std::vector<ClassAverages> Out(Corpus.size());
  ThreadPool Pool(Jobs ? Jobs : ThreadPool::hardwareJobs());
  Pool.parallelFor(Corpus.size(), [&](std::size_t I, unsigned) {
    Out[I] = measureClassification(Corpus[I], Opts, Promote, EnableRecovery);
  });
  return Out;
}

CoverageCounts sldb::measureCoverage(const std::vector<BenchProgram> &Corpus,
                                     const LevelSpec &Level,
                                     const CoverageOptions &MO) {
  CoverageCounts CC;
  CC.Level = Level.Name;
  for (const BenchProgram &P : Corpus)
    tally(compileBench(P, Level.Opts, {Level.Promote, MO.Schedule}).MM, CC,
          /*EnableRecovery=*/true, MO.DegradeAll);
  return CC;
}

std::string sldb::renderCoverageReport(const std::vector<CoverageCounts> &Rows) {
  std::string S = "level      points  uninit  nonres  noncur suspect "
                  "current   recov  endangered  debuggable%\n";
  char Buf[160];
  for (const CoverageCounts &R : Rows) {
    std::snprintf(Buf, sizeof(Buf),
                  "%-10s %6llu  %6llu  %6llu  %6llu  %6llu  %6llu  %6llu"
                  "      %6llu       %6.2f\n",
                  R.Level.c_str(),
                  static_cast<unsigned long long>(R.Points),
                  static_cast<unsigned long long>(R.Uninitialized),
                  static_cast<unsigned long long>(R.Nonresident),
                  static_cast<unsigned long long>(R.Noncurrent),
                  static_cast<unsigned long long>(R.Suspect),
                  static_cast<unsigned long long>(R.Current),
                  static_cast<unsigned long long>(R.Recovered),
                  static_cast<unsigned long long>(R.endangered()),
                  R.pctDebuggable());
    S += Buf;
  }
  return S;
}

std::string sldb::renderLevelReport(const std::vector<CoverageCounts> &Rows) {
  std::string S = "level       points current   recov  endangered  nonres "
                  "degraded  linecov%  avail%\n";
  char Buf[192];
  for (const CoverageCounts &R : Rows) {
    std::snprintf(Buf, sizeof(Buf),
                  "%-10s %7llu %7llu  %6llu      %6llu  %6llu   %6llu"
                  "    %6.2f  %6.2f\n",
                  R.Level.c_str(),
                  static_cast<unsigned long long>(R.Points),
                  static_cast<unsigned long long>(R.Current),
                  static_cast<unsigned long long>(R.Recovered),
                  static_cast<unsigned long long>(R.endangered()),
                  static_cast<unsigned long long>(R.Nonresident),
                  static_cast<unsigned long long>(R.Degraded),
                  R.pctLineCoverage(), R.pctDebuggable());
    S += Buf;
  }
  return S;
}

std::string sldb::renderConservatismReport(
    const std::vector<ConservatismCounts> &Rows) {
  std::string S = "level       noncur(match)  suspect(match)  nonres(match)"
                  "  conservatism%\n";
  char Buf[192];
  for (const ConservatismCounts &R : Rows) {
    std::snprintf(Buf, sizeof(Buf),
                  "%-10s %6llu (%5llu)  %6llu (%5llu)  %5llu (%5llu)"
                  "         %6.2f\n",
                  R.Level.c_str(),
                  static_cast<unsigned long long>(R.Noncurrent),
                  static_cast<unsigned long long>(R.NoncurrentMatched),
                  static_cast<unsigned long long>(R.Suspect),
                  static_cast<unsigned long long>(R.SuspectMatched),
                  static_cast<unsigned long long>(R.Nonresident),
                  static_cast<unsigned long long>(R.NonresidentMatched),
                  R.rate());
    S += Buf;
  }
  return S;
}

CodeQuality sldb::measureCodeQuality(const BenchProgram &P,
                                     std::uint64_t Fuel) {
  CodeQuality Q;
  CompiledModule C0 = compileBench(P, OptOptions::none(), {false, false});
  CompiledModule C2 = compileBench(P, OptOptions::all(), {});
  Machine V0(C0.MM, Fuel), V2(C2.MM, Fuel);
  StopReason R0 = V0.run();
  StopReason R2 = V2.run();
  Q.InstrUnoptimized = V0.instrCount();
  Q.InstrOptimized = V2.instrCount();
  Q.OutputsMatch = R0 == StopReason::Exited && R2 == StopReason::Exited &&
                   V0.outputText() == V2.outputText() &&
                   V0.exitValue() == V2.exitValue();
  return Q;
}
