//===- tests/trace_invariance_test.cpp -------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observer-effect property: tracing and stats are observation only.
/// Turning tracing on (and collecting per-unit traces) must leave every
/// verdict, the whole campaign report, and the transformed modules
/// byte-identical — the debugger may never answer differently because
/// someone is watching it.  Held over a 200-seed differential-fuzzing
/// corpus, the same corpus size as the tier-1 soundness campaign.
///
//===----------------------------------------------------------------------===//

#include "TestCompile.h"
#include "fuzz/Campaign.h"
#include "ir/IRPrinter.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace sldb;

namespace {

/// Every report-relevant field of a campaign result, as one string, so
/// "byte-identical report" is a single comparison.
std::string digest(const CampaignResult &R) {
  std::ostringstream D;
  D << "programs " << R.Programs << "\n"
    << "runs " << R.Runs << "\n"
    << "failed_compiles " << R.FailedCompiles << "\n"
    << "stops " << R.Stops << "\n"
    << "observations " << R.Observations << "\n"
    << "config_error " << R.ConfigError << "\n"
    << "with_hoisted " << R.Coverage.WithHoisted << "\n"
    << "with_sunk " << R.Coverage.WithSunk << "\n"
    << "with_dead_marks " << R.Coverage.WithDeadMarks << "\n"
    << "with_avail_marks " << R.Coverage.WithAvailMarks << "\n"
    << "with_sr_records " << R.Coverage.WithSRRecords << "\n";
  for (const PassFiring &F : R.Coverage.Firings)
    D << "firing " << F.Name << " " << F.Changed << "\n";
  for (const CampaignFailure &F : R.Failures) {
    D << "failure seed " << F.Seed << " promote " << F.Promote << "\n";
    for (const Violation &V : F.Violations)
      D << "  " << V.str() << "\n";
  }
  return D.str();
}

CampaignConfig corpus() {
  CampaignConfig C;
  C.Seed = 1;
  C.Count = 200;
  C.Shrink = false;
  C.WriteFailures = false;
  C.Jobs = 4; // Report is --jobs invariant by contract (PR 4).
  return C;
}

TEST(TraceInvariance, CampaignReportByteIdenticalWithTracingOn) {
  // Baseline: tracing off (the default).
  ASSERT_FALSE(Trace::enabled());
  CampaignResult Off = runCampaign(corpus());

  // Same corpus with tracing enabled, per-unit capture, and stats
  // accumulating.
  Trace::clear();
  Trace::enable();
  CampaignConfig C = corpus();
  C.CollectTrace = true;
  CampaignResult On = runCampaign(C);
  Trace::disable();
  Trace::clear();

  EXPECT_EQ(digest(Off), digest(On))
      << "enabling tracing changed the campaign report (observer effect)";

  // The trace itself was produced: campaign.unit spans in seed-major
  // order, tid = 1-based unit ordinal (one unit per seed).
  ASSERT_FALSE(On.Trace.empty());
  std::uint32_t MaxTid = 0;
  for (const TraceEvent &E : On.Trace) {
    ASSERT_GE(E.Tid, 1u);
    ASSERT_GE(E.Tid, MaxTid); // Seed-major merge: tids nondecreasing.
    MaxTid = E.Tid;
  }
  EXPECT_EQ(MaxTid, On.Programs);
}

TEST(TraceInvariance, PerQueryVerdictsIdenticalWithTracingOn) {
  // A direct, classifier-level version of the same property on one
  // program: the verdict stream over every (breakpoint, variable) point
  // is identical with tracing off, on, and on-with-explain.
  const char *Src = R"(
    int main() {
      int u = 7; int v = 3; int y = 2; int z = 4;
      int x = u - v;
      if (u > v) {
        x = y + z;
      } else {
        u = u + 1;
      }
      x = y + z;
      print(x);
      print(u);
      return 0;
    }
  )";
  auto Verdicts = [&]() {
    auto [IR, MM] = compileOrAbort(Src, OptOptions::all());
    std::ostringstream D;
    for (const MachineFunction &MF : MM.Funcs) {
      Classifier C(MF, *MM.Info);
      const FuncInfo &FI = MM.Info->func(MF.Id);
      for (StmtId S = 0; S < MF.StmtAddr.size(); ++S) {
        if (MF.StmtAddr[S] < 0)
          continue;
        std::uint32_t Addr = static_cast<std::uint32_t>(MF.StmtAddr[S]);
        for (VarId V : FI.Stmts[S].ScopeVars) {
          Classification CC = C.classify(Addr, V);
          D << S << ":" << V << " " << varClassName(CC.Kind) << " "
            << static_cast<int>(CC.Cause) << " " << CC.Recoverable << "\n";
        }
      }
    }
    return D.str();
  };

  ASSERT_FALSE(Trace::enabled());
  std::string Off = Verdicts();

  Trace::clear();
  Trace::enable();
  std::string On = Verdicts();
  Trace::disable();
  Trace::clear();

  EXPECT_EQ(Off, On) << "tracing perturbed classification verdicts";
}

TEST(TraceInvariance, StatsNeverBranchedOn) {
  // Stats are observation only too: resetting all counters mid-stream
  // must not change verdicts (nothing reads them back on a decision
  // path).  Cheap canary for the "nothing may branch on a counter" rule.
  CampaignConfig C = corpus();
  C.Count = 20;
  CampaignResult A = runCampaign(C);
  Stats::reset();
  CampaignResult B = runCampaign(C);
  EXPECT_EQ(digest(A), digest(B));
}

} // namespace
