//===- tests/parallel_campaign_test.cpp ------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel-campaign contract: a campaign report is a pure function
/// of (seed range, config) — never of --jobs, scheduling, or shard
/// decomposition.  Digests here serialize *everything* report-visible
/// (counts, coverage, firings, and the failure list in order), so any
/// nondeterministic aggregation shows up as a diff, not a flake.  Also
/// covers the FaultInjector thread-ownership rule and the campaign
/// config validation (seed-space wrap, shard range).
///
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <thread>

using namespace sldb;

namespace {

/// Serializes every deterministic field of a campaign result, including
/// failure ordering (the part most easily scrambled by a parallel
/// merge).  Worker stats are wall-clock and deliberately excluded.
std::string digest(const CampaignResult &R) {
  std::ostringstream D;
  D << "programs " << R.Programs << "\nruns " << R.Runs
    << "\nfailed_compiles " << R.FailedCompiles << "\nstops " << R.Stops
    << "\nobservations " << R.Observations << "\ncoverage "
    << R.Coverage.WithHoisted << " " << R.Coverage.WithSunk << " "
    << R.Coverage.WithDeadMarks << " " << R.Coverage.WithAvailMarks << " "
    << R.Coverage.WithSRRecords << "\n";
  for (const PassFiring &F : R.Coverage.Firings)
    D << "firing " << F.Name << " " << F.Changed << "\n";
  for (const CampaignFailure &F : R.Failures) {
    D << "failure seed " << F.Seed << " promote " << F.Promote << " "
      << F.FaultName << " " << F.ProcessOutcome << "\n";
    for (const Violation &V : F.Violations)
      D << "  violation " << V.str() << "\n";
  }
  D << "config_error " << R.ConfigError << "\n";
  return D.str();
}

std::string digest(const InjectCampaignResult &R) {
  std::ostringstream D;
  D << "programs " << R.Programs << "\nruns " << R.Runs
    << "\ncompile_errors " << R.CompileErrors << "\ndegraded "
    << R.DegradedRuns << "\ncrashes " << R.Crashes << "\nhangs "
    << R.Hangs << "\nunsound " << R.UnsoundRuns << "\n";
  for (const CampaignFailure &F : R.Failures)
    D << "failure seed " << F.Seed << " fault " << F.FaultName << "\n";
  D << "config_error " << R.ConfigError << "\n";
  return D.str();
}

CampaignConfig smallCampaign() {
  CampaignConfig C;
  C.Seed = 11;
  C.Count = 10;
  C.Shrink = false;
  C.WriteFailures = false;
  return C;
}

} // namespace

TEST(ParallelCampaign, ReportIdenticalAcrossJobCounts) {
  CampaignConfig C = smallCampaign();
  C.Jobs = 1;
  std::string Serial = digest(runCampaign(C));
  for (unsigned Jobs : {2u, 8u}) {
    C.Jobs = Jobs;
    EXPECT_EQ(digest(runCampaign(C)), Serial) << "jobs " << Jobs;
  }
}

TEST(ParallelCampaign, IsolatedPoolAgreesWithInProcessRun) {
  // Two workers each forking watchdogged children: the isolation layer
  // must agree with the in-process run on what ran and what failed
  // (stop, observation and coverage counts are lost to the fork by
  // design).
  CampaignConfig C = smallCampaign();
  CampaignResult InProcess = runCampaign(C);
  C.Isolate = true;
  C.Jobs = 2;
  CampaignResult Isolated = runCampaign(C);
  ASSERT_TRUE(Isolated.ConfigError.empty()) << Isolated.ConfigError;
  EXPECT_EQ(Isolated.Programs, InProcess.Programs);
  EXPECT_EQ(Isolated.Runs, InProcess.Runs);
  ASSERT_EQ(Isolated.Failures.size(), InProcess.Failures.size());
  for (std::size_t I = 0; I < Isolated.Failures.size(); ++I) {
    const CampaignFailure &A = Isolated.Failures[I];
    const CampaignFailure &B = InProcess.Failures[I];
    EXPECT_EQ(A.Seed, B.Seed);
    EXPECT_EQ(A.Promote, B.Promote);
    ASSERT_EQ(A.Violations.size(), B.Violations.size());
    for (std::size_t V = 0; V < A.Violations.size(); ++V)
      EXPECT_EQ(A.Violations[V].str(), B.Violations[V].str());
  }
}

TEST(ParallelCampaign, InjectReportIdenticalAcrossJobCounts) {
  InjectCampaignConfig C;
  C.Seed = 3;
  C.Count = 3;
  C.Shrink = false;
  C.WriteFailures = false;
  C.Isolate = false; // In-process: concurrent armed faults per thread.
  C.Jobs = 1;
  std::string Serial = digest(runInjectCampaign(C));
  for (unsigned Jobs : {3u, 8u}) {
    C.Jobs = Jobs;
    EXPECT_EQ(digest(runInjectCampaign(C)), Serial) << "jobs " << Jobs;
  }
}

TEST(ParallelCampaign, ShardsConcatenateToWholeCampaign) {
  CampaignConfig C = smallCampaign();
  C.Jobs = 2;
  CampaignResult Whole = runCampaign(C);

  CampaignResult Merged;
  for (unsigned I = 0; I < 3; ++I) {
    C.ShardIndex = I;
    C.ShardCount = 3;
    CampaignResult S = runCampaign(C);
    ASSERT_TRUE(S.ConfigError.empty()) << S.ConfigError;
    Merged.Programs += S.Programs;
    Merged.Runs += S.Runs;
    Merged.FailedCompiles += S.FailedCompiles;
    Merged.Stops += S.Stops;
    Merged.Observations += S.Observations;
    Merged.Coverage.WithHoisted += S.Coverage.WithHoisted;
    Merged.Coverage.WithSunk += S.Coverage.WithSunk;
    Merged.Coverage.WithDeadMarks += S.Coverage.WithDeadMarks;
    Merged.Coverage.WithAvailMarks += S.Coverage.WithAvailMarks;
    Merged.Coverage.WithSRRecords += S.Coverage.WithSRRecords;
    if (Merged.Coverage.Firings.empty()) {
      Merged.Coverage.Firings = S.Coverage.Firings;
    } else {
      for (std::size_t K = 0; K < Merged.Coverage.Firings.size() &&
                              K < S.Coverage.Firings.size();
           ++K)
        Merged.Coverage.Firings[K].Changed +=
            S.Coverage.Firings[K].Changed;
    }
    for (const CampaignFailure &F : S.Failures)
      Merged.Failures.push_back(F);
  }
  EXPECT_EQ(digest(Merged), digest(Whole));
}

TEST(ParallelCampaign, SeedRangeOverflowIsRejected) {
  CampaignConfig C = smallCampaign();
  C.Seed = 0xFFFFFFFEu;
  C.Count = 10;
  CampaignResult R = runCampaign(C);
  EXPECT_FALSE(R.ConfigError.empty());
  EXPECT_FALSE(R.sound());
  EXPECT_EQ(R.Programs, 0u);

  // The last representable seed is fine.
  C.Count = 2; // Seeds 0xFFFFFFFE, 0xFFFFFFFF.
  C.Gen.TopStmts = 4;
  C.Gen.Helpers = false;
  R = runCampaign(C);
  EXPECT_TRUE(R.ConfigError.empty()) << R.ConfigError;
  EXPECT_EQ(R.Programs, 2u);

  InjectCampaignConfig IC;
  IC.Seed = 0xFFFFFFF0u;
  IC.Count = 1000;
  InjectCampaignResult IR = runInjectCampaign(IC);
  EXPECT_FALSE(IR.ConfigError.empty());
  EXPECT_FALSE(IR.sound());
}

TEST(ParallelCampaign, BadShardConfigIsRejected) {
  CampaignConfig C = smallCampaign();
  C.ShardIndex = 3;
  C.ShardCount = 3;
  EXPECT_FALSE(runCampaign(C).ConfigError.empty());
  C.ShardIndex = 0;
  C.ShardCount = 0;
  EXPECT_FALSE(runCampaign(C).ConfigError.empty());
}

TEST(ParallelCampaign, WorkerStatsAccountForEveryUnit) {
  CampaignConfig C = smallCampaign();
  C.Jobs = 4;
  CampaignResult R = runCampaign(C);
  unsigned Units = 0;
  for (const CampaignWorkerStats &W : R.Workers)
    Units += W.Units;
  // One unit per seed, judging both modes.
  EXPECT_EQ(Units, C.Count);
  EXPECT_EQ(R.Runs, C.Count * 2);
}

TEST(FaultInjectorThreads, ArmedStateIsThreadOwned) {
  FaultInjector::arm(FaultId::DropDeadMarker, 42);
  EXPECT_TRUE(FaultInjector::armed(FaultId::DropDeadMarker));

  std::thread T([] {
    // A fresh thread starts pristine, whatever the spawner armed.
    EXPECT_EQ(FaultInjector::current(), FaultId::None);
    FaultInjector::arm(FaultId::TruncateStmtMap, 7);
    EXPECT_TRUE(FaultInjector::armed(FaultId::TruncateStmtMap));
    // This thread's oracle-pristine window must not disturb siblings.
    FaultInjector::suspend();
    EXPECT_EQ(FaultInjector::current(), FaultId::None);
    FaultInjector::resume();
    EXPECT_TRUE(FaultInjector::armed(FaultId::TruncateStmtMap));
    FaultInjector::disarm();
  });
  T.join();

  // The spawner's fault survived the other thread's arm/suspend/disarm.
  EXPECT_TRUE(FaultInjector::armed(FaultId::DropDeadMarker));
  FaultInjector::disarm();
  EXPECT_EQ(FaultInjector::current(), FaultId::None);
}

TEST(FaultInjectorThreads, RngStreamsAreIndependent) {
  FaultInjector::arm(FaultId::TrapVMMidRun, 1);
  std::uint32_t MainFirst = FaultInjector::rand();

  std::uint32_t ThreadFirst = 0;
  std::thread T([&] {
    FaultInjector::arm(FaultId::TrapVMMidRun, 1);
    ThreadFirst = FaultInjector::rand();
    // Draw more values; must not advance the main thread's stream.
    for (int I = 0; I < 100; ++I)
      FaultInjector::rand();
    FaultInjector::disarm();
  });
  T.join();

  // Same (fault, seed) => same deterministic stream, per thread.
  EXPECT_EQ(ThreadFirst, MainFirst);
  // Main thread's stream position is unaffected by the sibling's draws.
  FaultInjector::arm(FaultId::TrapVMMidRun, 1);
  EXPECT_EQ(FaultInjector::rand(), MainFirst);
  FaultInjector::disarm();
}
