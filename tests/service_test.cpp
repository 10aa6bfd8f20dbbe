//===- tests/service_test.cpp - Classification-service tests ---*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service robustness envelope, in-process through ServiceCore (no
/// transport): protocol parsing/rendering, batch splitting, admission
/// control and shedding, arena/session budgets, fuel deadlines,
/// fault-containment quarantine, the graceful-interrupt flag, and the
/// headline determinism contract — a fixed 500-request stream answered
/// byte-identically at --jobs 1/4/8 and under session-interleave
/// shuffles — plus one end-to-end `sldbd --replay` CLI smoke.
///
//===----------------------------------------------------------------------===//

#include "fuzz/QueryGen.h"
#include "service/Protocol.h"
#include "service/ServiceCore.h"
#include "support/FaultInjector.h"
#include "support/Interrupt.h"
#include "support/Percentiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

using namespace sldb;

namespace {

/// Runs a whole stream through one core, concatenating all responses.
std::string runStream(ServiceCore &Core, const QueryStream &Stream) {
  std::string Out;
  for (const auto &Batch : Stream.Batches)
    for (const std::string &R : Core.processBatch(Batch)) {
      Out += R;
      Out += '\n';
    }
  return Out;
}

/// One-batch convenience.
std::vector<std::string> run(ServiceCore &Core,
                             std::vector<std::string> Lines) {
  return Core.processBatch(Lines);
}

} // namespace

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, ParsesVerbAndSession) {
  Request R = parseRequest("@s1 classify m f 3 x");
  EXPECT_EQ(R.V, Verb::Classify);
  EXPECT_EQ(R.Session, "s1");
  ASSERT_EQ(R.Args.size(), 4u);
  EXPECT_EQ(R.Args[0], "m");
  EXPECT_EQ(R.Args[3], "x");

  R = parseRequest("health");
  EXPECT_EQ(R.V, Verb::Health);
  EXPECT_TRUE(R.Session.empty());
  EXPECT_TRUE(R.Args.empty());
}

TEST(Protocol, UnknownVerbAndArityAreInvalid) {
  Request R = parseRequest("frobnicate m");
  EXPECT_EQ(R.V, Verb::Invalid);
  EXPECT_FALSE(R.Error.empty());

  // Too few operands for classify.
  R = parseRequest("classify m f");
  EXPECT_EQ(R.V, Verb::Invalid);
  EXPECT_FALSE(R.Error.empty());

  // A bare @session with no verb.
  R = parseRequest("@s1");
  EXPECT_EQ(R.V, Verb::Invalid);
}

TEST(Protocol, AdmissionAndBarrierClasses) {
  EXPECT_TRUE(parseRequest("health").bypassesAdmission());
  EXPECT_TRUE(parseRequest("stats").bypassesAdmission());
  EXPECT_TRUE(parseRequest("shutdown").bypassesAdmission());
  EXPECT_FALSE(parseRequest("step m 3").bypassesAdmission());
  EXPECT_TRUE(parseRequest("load m seed:1").isBarrier());
  EXPECT_TRUE(parseRequest("shutdown").isBarrier());
  EXPECT_FALSE(parseRequest("classify m f 0 x").isBarrier());
}

TEST(Protocol, RenderersEchoSession) {
  EXPECT_EQ(renderOk("", "done"), "ok done");
  EXPECT_EQ(renderOk("s2", "done"), "@s2 ok done");
  EXPECT_EQ(renderErr("s2", ErrorCode::InvalidRequest, "nope"),
            "@s2 err invalid-request nope");
  EXPECT_EQ(renderShed("s1", 50), "@s1 shed retry-after-ms=50");
  EXPECT_EQ(renderShed("", 10), "shed retry-after-ms=10");
}

TEST(Protocol, SplitBatches) {
  auto B = splitBatches("a\nb\n\nc\r\n\n\n\nd\ne");
  ASSERT_EQ(B.size(), 3u);
  EXPECT_EQ(B[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(B[1], (std::vector<std::string>{"c"}));
  // Trailing unterminated batch is kept.
  EXPECT_EQ(B[2], (std::vector<std::string>{"d", "e"}));
  EXPECT_TRUE(splitBatches("").empty());
  EXPECT_TRUE(splitBatches("\n\n\n").empty());
}

//===----------------------------------------------------------------------===//
// ServiceCore basics
//===----------------------------------------------------------------------===//

TEST(Service, LoadAndQuery) {
  ServiceCore Core(ServiceLimits(), 1);
  auto R = run(Core, {"@s1 load m seed:1"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].rfind("@s1 ok loaded m ", 0), 0u) << R[0];
  EXPECT_NE(R[0].find("quarantined=0"), std::string::npos) << R[0];
  EXPECT_EQ(Core.numModules(), 1u);
  EXPECT_EQ(Core.numQuarantined(), 0u);

  // classify-all at statement 0 of main answers with a variable list.
  R = run(Core, {"@s1 classify-all m main 0"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].rfind("@s1 ok n=", 0), 0u) << R[0];

  // Unknown entities are invalid-request, not crashes.
  R = run(Core, {"classify nosuch main 0 x", "classify m nosuch 0 x",
                 "classify m main 99999 x", "bogus-verb"});
  ASSERT_EQ(R.size(), 4u);
  for (const std::string &Line : R)
    EXPECT_EQ(Line.rfind("err invalid-request ", 0), 0u) << Line;
}

TEST(Service, DuplicateLoadAndModuleCap) {
  ServiceLimits L;
  L.MaxModules = 2;
  ServiceCore Core(L, 1);
  auto R = run(Core, {"load a seed:1"});
  EXPECT_EQ(R[0].rfind("ok loaded", 0), 0u);
  R = run(Core, {"load a seed:2"});
  EXPECT_EQ(R[0].rfind("err invalid-request ", 0), 0u) << R[0];
  R = run(Core, {"load b seed:2"});
  EXPECT_EQ(R[0].rfind("ok loaded", 0), 0u);
  // Registry is full: structured refusal.
  R = run(Core, {"load c seed:3"});
  EXPECT_EQ(R[0].rfind("err resource-exhausted ", 0), 0u) << R[0];
  EXPECT_EQ(Core.numModules(), 2u);
}

TEST(Service, UnknownLevelIsStructuredNotQuarantined) {
  ServiceCore Core(ServiceLimits(), 1);

  // A load naming a future/misspelled pipeline level is refused with a
  // structured err unknown-level before anything compiles: no module
  // registered, nothing quarantined, the name stays free.
  auto R = run(Core, {"@s1 load m seed:1 O9-hyperssa"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].rfind("@s1 err unknown-level ", 0), 0u) << R[0];
  EXPECT_NE(R[0].find("O9-hyperssa"), std::string::npos) << R[0];
  EXPECT_EQ(Core.numModules(), 0u);
  EXPECT_EQ(Core.numQuarantined(), 0u);

  // The service is healthy afterwards: the same name loads at a real
  // SSA-tier level and serves queries.
  R = run(Core, {"@s1 load m seed:1 O2nl-ssa"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].rfind("@s1 ok loaded m ", 0), 0u) << R[0];
  R = run(Core, {"@s1 classify-all m main 0"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].rfind("@s1 ok n=", 0), 0u) << R[0];

  // Frame-resident single-pass levels load too.
  R = run(Core, {"load f seed:2 ssa"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].rfind("ok loaded f ", 0), 0u) << R[0];

  // Arity guard: a fourth operand is still a parse error.
  Request Req = parseRequest("load m seed:1 O2 extra");
  EXPECT_EQ(Req.V, Verb::Invalid);
}

TEST(Service, HealthAndStatsShape) {
  ServiceCore Core(ServiceLimits(), 1);
  run(Core, {"load m seed:1"});
  auto R = run(Core, {"health", "stats"});
  ASSERT_EQ(R.size(), 2u);
  EXPECT_NE(R[0].find("modules=1"), std::string::npos) << R[0];
  EXPECT_NE(R[0].find("quarantined=0"), std::string::npos) << R[0];
  EXPECT_NE(R[1].find("unsound=0"), std::string::npos) << R[1];
  EXPECT_NE(R[1].find("requests="), std::string::npos) << R[1];
}

TEST(Service, ShutdownLatches) {
  ServiceCore Core(ServiceLimits(), 1);
  EXPECT_FALSE(Core.shutdownRequested());
  auto R = run(Core, {"shutdown"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].rfind("ok ", 0), 0u);
  EXPECT_TRUE(Core.shutdownRequested());
}

//===----------------------------------------------------------------------===//
// Robustness envelope
//===----------------------------------------------------------------------===//

TEST(Service, LoadArenaBudgetIsStructured) {
  ServiceLimits L;
  L.LoadArenaBytes = 4096; // No module compiles into 4 KB.
  ServiceCore Core(L, 1);
  auto R = run(Core, {"load m seed:1"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].rfind("err resource-exhausted ", 0), 0u) << R[0];
  // The failed load left nothing behind.
  EXPECT_EQ(Core.numModules(), 0u);
}

TEST(Service, SessionBudgetCapsTotals) {
  ServiceLimits L;
  L.SessionArenaBytes = 1 << 20; // Roughly enough for a handful of loads.
  ServiceCore Core(L, 1);
  // Load until the session budget refuses; it must refuse eventually and
  // the refusal must be structured.
  bool Refused = false;
  for (int I = 0; I < 64 && !Refused; ++I) {
    auto R = run(Core, {"@s1 load m" + std::to_string(I) +
                        " seed:" + std::to_string(I + 1)});
    ASSERT_EQ(R.size(), 1u);
    if (R[0].find("err resource-exhausted") != std::string::npos)
      Refused = true;
    else
      EXPECT_NE(R[0].find("ok loaded"), std::string::npos) << R[0];
  }
  EXPECT_TRUE(Refused);
  // A different session still has budget.
  auto R = run(Core, {"@s2 load other seed:1"});
  EXPECT_NE(R[0].find("ok loaded"), std::string::npos) << R[0];
}

TEST(Service, FuelDeadlineIsResourceExhausted) {
  ServiceLimits L;
  L.RequestFuel = 50; // Far too little to finish any program.
  ServiceCore Core(L, 1);
  run(Core, {"load m seed:1"});
  auto R = run(Core, {"step m 10000"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].rfind("err resource-exhausted ", 0), 0u) << R[0];
  // The module is NOT quarantined: a deadline is the envelope working,
  // not a fault in the module.
  EXPECT_EQ(Core.numQuarantined(), 0u);
  // And the core still answers afterwards.
  auto R2 = run(Core, {"classify-all m main 0"});
  EXPECT_EQ(R2[0].rfind("ok n=", 0), 0u) << R2[0];
}

TEST(Service, StepCapIsValidated) {
  ServiceLimits L;
  L.MaxStepsPerRequest = 10;
  ServiceCore Core(L, 1);
  run(Core, {"load m seed:1"});
  // Over the cap is a budget refusal (the request is well-formed; the
  // service declines the work), not a parse error.
  auto R = run(Core, {"step m 11"});
  EXPECT_EQ(R[0].rfind("err resource-exhausted ", 0), 0u) << R[0];
  R = run(Core, {"step m 5"});
  EXPECT_EQ(R[0].rfind("ok ", 0), 0u) << R[0];
  // A count that is not plain decimal digits is malformed, also one
  // strtoull would have read as a huge count.
  for (const char *Bad : {"step m -1", "step m +5", "step m 5x"}) {
    R = run(Core, {Bad});
    EXPECT_EQ(R[0].rfind("err invalid-request bad step count", 0), 0u)
        << Bad << ": " << R[0];
  }
}

TEST(Service, AdmissionShedsBeyondQueueDepth) {
  ServiceLimits L;
  L.QueueDepth = 2;
  L.RetryAfterMs = 7;
  ServiceCore Core(L, 1);
  run(Core, {"load m seed:1"});
  // Five queries + one bypass verb in one batch: exactly the first two
  // queries are admitted, health answers regardless.
  auto R = run(Core, {"classify-all m main 0", "classify-all m main 0",
                      "classify-all m main 0", "classify-all m main 0",
                      "@s9 classify-all m main 0", "health"});
  ASSERT_EQ(R.size(), 6u);
  EXPECT_EQ(R[0].rfind("ok n=", 0), 0u);
  EXPECT_EQ(R[1].rfind("ok n=", 0), 0u);
  EXPECT_EQ(R[2], "shed retry-after-ms=7");
  EXPECT_EQ(R[3], "shed retry-after-ms=7");
  EXPECT_EQ(R[4], "@s9 shed retry-after-ms=7");
  EXPECT_EQ(R[5].rfind("ok ", 0), 0u) << R[5];
}

//===----------------------------------------------------------------------===//
// Fault containment
//===----------------------------------------------------------------------===//

TEST(Service, FaultyLoadIsQuarantinedAndDegraded) {
  const FaultPoint *P = FaultInjector::findPoint("drop-dead-marker");
  ASSERT_NE(P, nullptr);
  ServiceCore Core(ServiceLimits(), 1);
  FaultInjector::arm(P->Id, 3);
  auto R = run(Core, {"load bad seed:3"});
  FaultInjector::disarm();
  ASSERT_EQ(R.size(), 1u);
  ASSERT_NE(R[0].find("quarantined=1"), std::string::npos) << R[0];
  EXPECT_EQ(Core.numQuarantined(), 1u);

  // Every answer from the quarantined module is conservatively
  // degraded: never Current, never Recoverable, and flagged.
  R = run(Core, {"classify-all bad main 0"});
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].rfind("ok n=", 0), 0u) << R[0];
  EXPECT_NE(R[0].find("quarantined=1"), std::string::npos) << R[0];
  EXPECT_EQ(R[0].find("=current"), std::string::npos) << R[0];
  EXPECT_EQ(R[0].find(",rec"), std::string::npos) << R[0];

  // A pristine load alongside is unaffected (containment, not
  // contagion).
  R = run(Core, {"load good seed:3"});
  EXPECT_NE(R[0].find("quarantined=0"), std::string::npos) << R[0];
  EXPECT_EQ(Core.numQuarantined(), 1u);

  // The containment audit saw nothing unsound.
  R = run(Core, {"stats"});
  EXPECT_NE(R[0].find("unsound=0"), std::string::npos) << R[0];
  EXPECT_NE(R[0].find("quarantined=1"), std::string::npos) << R[0];
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

namespace {

QueryStream canonicalStream() {
  QueryStreamOptions QO;
  QO.Sessions = 4;
  QO.ModulesPerSession = 2;
  // 8 loads + 4x125 queries + stats/health sprinkled by the generator:
  // >= 500 requests total, the tentpole's canned-stream size.
  QO.QueriesPerSession = 125;
  QO.BaseSeed = 7;
  return generateQueryStream(QO);
}

} // namespace

TEST(Service, DeterministicAcrossJobs) {
  QueryStream Stream = canonicalStream();
  ASSERT_GE(Stream.numRequests(), 500u);
  std::string Baseline;
  for (unsigned Jobs : {1u, 4u, 8u}) {
    ServiceCore Core(ServiceLimits(), Jobs);
    std::string Out = runStream(Core, Stream);
    if (Baseline.empty())
      Baseline = Out;
    else
      EXPECT_EQ(Out, Baseline) << "responses diverged at jobs=" << Jobs;
  }
  EXPECT_NE(Baseline.find("ok"), std::string::npos);
}

TEST(Service, DeterministicUnderInterleaveShuffle) {
  // Sessions own disjoint modules, so any session-interleave must leave
  // every request's response unchanged.  Compare per-line: request ->
  // response maps across shuffles.
  std::map<std::string, std::string> Baseline;
  for (std::uint64_t Shuffle : {0ull, 11ull, 42ull}) {
    QueryStreamOptions QO;
    QO.Sessions = 3;
    QO.ModulesPerSession = 2;
    QO.QueriesPerSession = 50;
    QO.BaseSeed = 7;
    QO.ShuffleSeed = Shuffle;
    QueryStream Stream = generateQueryStream(QO);
    ServiceCore Core(ServiceLimits(), 4);
    for (const auto &Batch : Stream.Batches) {
      std::vector<std::string> Resp = Core.processBatch(Batch);
      ASSERT_EQ(Resp.size(), Batch.size());
      for (std::size_t I = 0; I < Batch.size(); ++I) {
        auto It = Baseline.find(Batch[I]);
        if (It == Baseline.end())
          Baseline.emplace(Batch[I], Resp[I]);
        else
          EXPECT_EQ(Resp[I], It->second)
              << "shuffle " << Shuffle << " changed the answer to: "
              << Batch[I];
      }
    }
  }
}

TEST(Service, QuarantineConvergesIdenticallyAcrossJobs) {
  // Same determinism bar with a defended fault armed during the loads:
  // which modules end up quarantined — and every degraded answer — must
  // not depend on the worker count.
  const FaultPoint *P = FaultInjector::findPoint("truncate-stmt-map");
  ASSERT_NE(P, nullptr);
  QueryStreamOptions QO;
  QO.Sessions = 3;
  QO.ModulesPerSession = 2;
  QO.QueriesPerSession = 60;
  QO.BaseSeed = 5;
  QueryStream Stream = generateQueryStream(QO);

  std::string Baseline;
  std::size_t QuarantinedAt1 = 0;
  for (unsigned Jobs : {1u, 4u, 8u}) {
    ServiceCore Core(ServiceLimits(), Jobs);
    FaultInjector::arm(P->Id, 9);
    std::string Out = runStream(Core, Stream);
    FaultInjector::disarm();
    if (Baseline.empty()) {
      Baseline = Out;
      QuarantinedAt1 = Core.numQuarantined();
      // The fault must actually bite for this test to mean anything.
      EXPECT_GT(QuarantinedAt1, 0u);
    } else {
      EXPECT_EQ(Out, Baseline) << "quarantine diverged at jobs=" << Jobs;
      EXPECT_EQ(Core.numQuarantined(), QuarantinedAt1);
    }
  }
}

//===----------------------------------------------------------------------===//
// Graceful interrupt
//===----------------------------------------------------------------------===//

// The load driver's latency summary (support/Percentiles.h).  The empty
// set is the regression of record: a stream where every request was shed
// completes with zero latency samples, and the old report computed
// percentiles over it — the line must degrade to n/a instead.
TEST(LoadReport, EmptyLatencySetSaysNa) {
  EXPECT_EQ(latencyReportLine({}), "latency-us n/a (no completed batches)");
}

TEST(LoadReport, PercentilesAreNearestRank) {
  // Single sample: every percentile is that sample.
  EXPECT_EQ(latencyReportLine({42}),
            "latency-us p50=42 p90=42 p99=42 max=42");

  // 1..100 (shuffled on input — the helper sorts): nearest-rank lands on
  // round values and max is the true maximum.
  std::vector<std::uint64_t> S;
  for (std::uint64_t V = 100; V >= 1; --V)
    S.push_back(V);
  EXPECT_EQ(latencyReportLine(S),
            "latency-us p50=51 p90=90 p99=99 max=100");

  std::vector<std::uint64_t> Sorted(S);
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(percentileOfSorted(Sorted, 0.0), 1u);
  EXPECT_EQ(percentileOfSorted(Sorted, 1.0), 100u);
}

TEST(Interrupt, FlagLifecycle) {
  clearInterruptForTesting();
  EXPECT_FALSE(interruptRequested());
  requestInterrupt();
  EXPECT_TRUE(interruptRequested());
  // Sticky until explicitly cleared.
  EXPECT_TRUE(interruptRequested());
  clearInterruptForTesting();
  EXPECT_FALSE(interruptRequested());
}

//===----------------------------------------------------------------------===//
// CLI smoke: sldbd --replay
//===----------------------------------------------------------------------===//

#ifdef SLDB_SLDBD_PATH
TEST(ServiceCLI, ReplaySmoke) {
  std::string Dir = ::testing::TempDir();
  std::string StreamPath = Dir + "/sldbd_replay_stream.txt";
  std::string OutPath = Dir + "/sldbd_replay_out.txt";
  {
    std::ofstream S(StreamPath);
    S << "@s1 load m seed:1\n\n"
      << "@s1 classify-all m main 0\nhealth\n\n"
      << "shutdown\n\n";
  }
  std::string Cmd = std::string(SLDB_SLDBD_PATH) + " --jobs 2 --replay " +
                    StreamPath + " > " + OutPath + " 2>/dev/null";
  int RC = std::system(Cmd.c_str());
  EXPECT_EQ(RC, 0);
  std::ifstream In(OutPath);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Out = SS.str();
  EXPECT_NE(Out.find("@s1 ok loaded m "), std::string::npos) << Out;
  EXPECT_NE(Out.find("@s1 ok n="), std::string::npos) << Out;
  EXPECT_NE(Out.find("ok modules=1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("ok bye"), std::string::npos) << Out;
  std::remove(StreamPath.c_str());
  std::remove(OutPath.c_str());
}

namespace {

/// Runs \p Cmd through the shell, stdout discarded: its exit status (128
/// plus the signal number when a signal ended it) and its stderr.
std::pair<int, std::string> runForStatus(const std::string &Cmd) {
  std::string Err;
  FILE *P = popen((Cmd + " 2>&1 >/dev/null").c_str(), "r");
  if (!P)
    return {-1, Err};
  char Buf[4096];
  std::size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Err.append(Buf, N);
  int St = pclose(P);
  return {WIFEXITED(St) ? WEXITSTATUS(St) : 128 + WTERMSIG(St), Err};
}

} // namespace

// --jobs takes decimal digits in 1..256; anything else is a usage error
// before the daemon starts.  An empty --replay starts no pool thread, so
// a value wrongly accepted could start none either.
TEST(ServiceCLI, DaemonRejectsMalformedJobs) {
  for (const char *Jobs : {"-1", "''", "abc", "12abc", "0", "257"}) {
    auto [RC, Err] = runForStatus(std::string(SLDB_SLDBD_PATH) + " --jobs " +
                                  Jobs + " --replay /dev/null");
    EXPECT_EQ(RC, 2) << "--jobs " << Jobs;
    EXPECT_NE(Err.find("sldbd: bad argument: --jobs"), std::string::npos)
        << Err;
  }
  EXPECT_EQ(runForStatus(std::string(SLDB_SLDBD_PATH) +
                         " --jobs 256 --replay /dev/null")
                .first,
            0);
}

#ifdef SLDB_LOAD_PATH
// sldb-load's integer flags take decimal digits in range, --concurrency
// 1..256, and a bad one is a usage error before the daemon is spawned.
// Pipe mode only: there any --concurrency above 1 is forced down to 1 and
// no client thread starts, so a value wrongly accepted could start none.
TEST(ServiceCLI, LoadRejectsMalformedIntegerFlags) {
  const std::pair<const char *, const char *> Bad[] = {
      {"--concurrency", "0"},     {"--concurrency", "abc"},
      {"--concurrency", "12abc"}, {"--concurrency", "-1"},
      {"--concurrency", "257"},   {"--sessions", "12abc"},
      {"--seed", "abc"},
  };
  for (const auto &[Flag, Value] : Bad) {
    auto [RC, Err] = runForStatus(
        std::string(SLDB_LOAD_PATH) + " --spawn " + SLDB_SLDBD_PATH + " " +
        Flag + " " + Value + " --sessions 1 --modules 1 --queries 2 --quiet");
    EXPECT_EQ(RC, 2) << Flag << " " << Value << ": " << Err;
    EXPECT_NE(Err.find(std::string("sldb-load: bad argument: ") + Flag + " " +
                       Value),
              std::string::npos)
        << Err;
  }
}
#endif
#endif
