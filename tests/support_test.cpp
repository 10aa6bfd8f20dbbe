//===- tests/support_test.cpp - Support library tests ----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/BitVector.h"
#include "support/Diagnostics.h"
#include "support/Sharder.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <string>
#include <vector>

using namespace sldb;

TEST(BitVector, BasicSetReset) {
  BitVector BV(100);
  EXPECT_EQ(BV.size(), 100u);
  EXPECT_TRUE(BV.none());
  BV.set(0);
  BV.set(63);
  BV.set(64);
  BV.set(99);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(63));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(99));
  EXPECT_FALSE(BV.test(1));
  EXPECT_EQ(BV.count(), 4u);
  BV.reset(63);
  EXPECT_FALSE(BV.test(63));
  EXPECT_EQ(BV.count(), 3u);
}

TEST(BitVector, SetAllRespectsSize) {
  BitVector BV(70);
  BV.set();
  EXPECT_EQ(BV.count(), 70u);
  BV.reset();
  EXPECT_TRUE(BV.none());
}

TEST(BitVector, ResizeWithValue) {
  BitVector BV(10);
  BV.set(3);
  BV.resize(130, true);
  EXPECT_TRUE(BV.test(3));
  EXPECT_FALSE(BV.test(4));
  for (unsigned I = 10; I < 130; ++I)
    EXPECT_TRUE(BV.test(I)) << I;
  EXPECT_EQ(BV.count(), 121u);
}

TEST(BitVector, FindFirstNext) {
  BitVector BV(200);
  EXPECT_EQ(BV.findFirst(), -1);
  BV.set(5);
  BV.set(64);
  BV.set(199);
  EXPECT_EQ(BV.findFirst(), 5);
  EXPECT_EQ(BV.findNext(5), 64);
  EXPECT_EQ(BV.findNext(64), 199);
  EXPECT_EQ(BV.findNext(199), -1);
}

TEST(BitVector, Iteration) {
  BitVector BV(150);
  std::set<unsigned> Expected = {0, 1, 63, 64, 65, 127, 128, 149};
  for (unsigned I : Expected)
    BV.set(I);
  std::set<unsigned> Got;
  for (unsigned I : BV)
    Got.insert(I);
  EXPECT_EQ(Got, Expected);
}

TEST(BitVector, SetAlgebra) {
  BitVector A(80), B(80);
  A.set(1);
  A.set(40);
  B.set(40);
  B.set(70);

  BitVector U = A;
  U |= B;
  EXPECT_TRUE(U.test(1));
  EXPECT_TRUE(U.test(40));
  EXPECT_TRUE(U.test(70));
  EXPECT_EQ(U.count(), 3u);

  BitVector I = A;
  I &= B;
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(40));

  BitVector D = A;
  D.subtract(B);
  EXPECT_EQ(D.count(), 1u);
  EXPECT_TRUE(D.test(1));

  EXPECT_TRUE(A.anyCommon(B));
  EXPECT_TRUE(I.isSubsetOf(A));
  EXPECT_TRUE(I.isSubsetOf(B));
  EXPECT_FALSE(A.isSubsetOf(B));
}

TEST(BitVector, EqualityAndCopy) {
  BitVector A(33), B(33);
  EXPECT_EQ(A, B);
  A.set(32);
  EXPECT_NE(A, B);
  B = A;
  EXPECT_EQ(A, B);
}

TEST(BitVector, RandomizedAgainstStdSet) {
  std::mt19937 Rng(42);
  BitVector BV(512);
  std::set<unsigned> Ref;
  for (int Step = 0; Step < 2000; ++Step) {
    unsigned Idx = Rng() % 512;
    if (Rng() % 2) {
      BV.set(Idx);
      Ref.insert(Idx);
    } else {
      BV.reset(Idx);
      Ref.erase(Idx);
    }
  }
  EXPECT_EQ(BV.count(), Ref.size());
  for (unsigned I = 0; I < 512; ++I)
    EXPECT_EQ(BV.test(I), Ref.count(I) != 0) << I;
}

TEST(BitVector, RangeSetResetMatchesBitLoop) {
  // Ranges inside one word, across word boundaries, spanning whole words,
  // empty, and touching the last bit of a partial last word.
  std::mt19937 Rng(7);
  for (unsigned N : {1u, 63u, 64u, 65u, 128u, 200u}) {
    BitVector BV(N), Ref(N);
    for (int Step = 0; Step < 400; ++Step) {
      unsigned Begin = Rng() % (N + 1);
      unsigned End = Begin + Rng() % (N + 1 - Begin);
      bool Set = Rng() % 2;
      if (Set)
        BV.set(Begin, End);
      else
        BV.reset(Begin, End);
      for (unsigned I = Begin; I < End; ++I)
        Set ? Ref.set(I) : Ref.reset(I);
      ASSERT_EQ(BV, Ref) << "size " << N << " range [" << Begin << ", "
                         << End << ")";
    }
  }
}

TEST(Diagnostics, CollectsAndFormats) {
  DiagnosticEngine DE;
  EXPECT_FALSE(DE.hasErrors());
  DE.warning(SourceLoc(1, 2), "watch out");
  EXPECT_FALSE(DE.hasErrors());
  DE.error(SourceLoc(3, 4), "boom");
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_EQ(DE.errorCount(), 1u);
  std::string S = DE.str();
  EXPECT_NE(S.find("1:2: warning: watch out"), std::string::npos);
  EXPECT_NE(S.find("3:4: error: boom"), std::string::npos);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (unsigned Jobs : {1u, 2u, 4u, 7u}) {
    constexpr std::size_t Count = 257;
    std::vector<std::atomic<unsigned>> Hits(Count);
    ThreadPool Pool(Jobs);
    std::vector<WorkerStats> WS =
        Pool.parallelFor(Count, [&](std::size_t I, unsigned) {
          Hits[I].fetch_add(1, std::memory_order_relaxed);
        });
    for (std::size_t I = 0; I < Count; ++I)
      EXPECT_EQ(Hits[I].load(), 1u) << "jobs " << Jobs << " index " << I;
    unsigned Tasks = 0, Queued = 0;
    for (const WorkerStats &S : WS) {
      Tasks += S.Tasks;
      Queued += S.InitialQueue;
    }
    EXPECT_EQ(Tasks, Count) << "jobs " << Jobs;
    EXPECT_EQ(Queued, Count) << "jobs " << Jobs;
  }
}

TEST(ThreadPool, MoreJobsThanWorkAndEmptyWork) {
  std::atomic<unsigned> Ran{0};
  ThreadPool Pool(16);
  Pool.parallelFor(3, [&](std::size_t, unsigned) { ++Ran; });
  EXPECT_EQ(Ran.load(), 3u);
  std::vector<WorkerStats> WS =
      Pool.parallelFor(0, [&](std::size_t, unsigned) { ++Ran; });
  EXPECT_EQ(Ran.load(), 3u);
  ASSERT_FALSE(WS.empty());
  EXPECT_EQ(WS.front().Tasks, 0u);
}

TEST(ThreadPool, ZeroJobsClampsToOneAndRunsInline) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.jobs(), 1u);
  unsigned Ran = 0; // Not atomic: the serial path must stay inline.
  std::vector<WorkerStats> WS =
      Pool.parallelFor(5, [&](std::size_t, unsigned W) {
        EXPECT_EQ(W, 0u);
        ++Ran;
      });
  EXPECT_EQ(Ran, 5u);
  ASSERT_EQ(WS.size(), 1u);
  EXPECT_EQ(WS[0].Tasks, 5u);
  EXPECT_EQ(WS[0].Steals, 0u);
}

TEST(ThreadPool, StealingDrainsImbalancedLoad) {
  // One giant task at index 0: its owner is pinned while the others
  // finish their blocks, so any further progress on worker 0's block
  // must come from steals.
  constexpr std::size_t Count = 64;
  std::vector<std::atomic<unsigned>> Hits(Count);
  std::atomic<bool> Release{false};
  std::atomic<unsigned> Done{0};
  ThreadPool Pool(4);
  std::vector<WorkerStats> WS =
      Pool.parallelFor(Count, [&](std::size_t I, unsigned) {
        if (I == 0) {
          // Busy-wait until every other index has run.
          while (!Release.load(std::memory_order_acquire)) {
          }
        }
        Hits[I].fetch_add(1, std::memory_order_relaxed);
        if (Done.fetch_add(1, std::memory_order_acq_rel) + 1 == Count - 1)
          Release.store(true, std::memory_order_release);
      });
  for (std::size_t I = 0; I < Count; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << I;
  unsigned Steals = 0;
  for (const WorkerStats &S : WS)
    Steals += S.Steals;
  EXPECT_GT(Steals, 0u);
}

TEST(Sharder, SlicesAreContiguousDisjointAndComplete) {
  for (std::size_t Count : {0u, 1u, 7u, 100u, 101u}) {
    for (unsigned K : {1u, 2u, 3u, 8u}) {
      std::size_t Next = 0;
      for (unsigned I = 0; I < K; ++I) {
        ShardRange R = Sharder::slice(Count, I, K);
        EXPECT_EQ(R.Begin, Next) << Count << " " << I << "/" << K;
        EXPECT_LE(R.Begin, R.End);
        Next = R.End;
      }
      EXPECT_EQ(Next, Count) << Count << " /" << K;
    }
  }
  // Sizes differ by at most one.
  for (unsigned I = 0; I < 8; ++I) {
    std::size_t N = Sharder::slice(101, I, 8).size();
    EXPECT_TRUE(N == 12 || N == 13) << I;
  }
}

TEST(Sharder, ParseSpec) {
  unsigned I = 9, K = 9;
  EXPECT_TRUE(Sharder::parseSpec("0/1", I, K));
  EXPECT_EQ(I, 0u);
  EXPECT_EQ(K, 1u);
  EXPECT_TRUE(Sharder::parseSpec("2/8", I, K));
  EXPECT_EQ(I, 2u);
  EXPECT_EQ(K, 8u);
  for (const char *Bad :
       {"", "/", "1/", "/2", "3/3", "4/2", "a/2", "1/b", "1/0", "1//2"}) {
    unsigned I2 = 0, K2 = 0;
    EXPECT_FALSE(Sharder::parseSpec(Bad, I2, K2)) << Bad;
  }
}

//===----------------------------------------------------------------------===//
// Stats: named counters / histograms (support/Stats.h)
//===----------------------------------------------------------------------===//

TEST(Stats, CounterInternsAndAccumulates) {
  Stats::reset();
  StatCounter &A = Stats::counter("test.stats.a");
  StatCounter &B = Stats::counter("test.stats.a");
  EXPECT_EQ(&A, &B) << "same name must intern to the same counter";
  A.add();
  B.add(41);
  EXPECT_EQ(A.value(), 42u);
  Stats::reset();
  EXPECT_EQ(A.value(), 0u) << "reset zeroes in place, identity survives";
}

TEST(Stats, HistogramBucketsMinMaxMean) {
  Stats::reset();
  StatHistogram &H = Stats::histogram("test.stats.hist");
  for (std::uint64_t V : {0ull, 1ull, 2ull, 3ull, 1024ull})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 1030u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1024u);
  EXPECT_DOUBLE_EQ(H.mean(), 206.0);
  // Power-of-two buckets: 0,1 -> bucket 0; 2,3 -> bucket 1; 1024 -> 10.
  EXPECT_EQ(H.bucket(0), 2u);
  EXPECT_EQ(H.bucket(1), 2u);
  EXPECT_EQ(H.bucket(10), 1u);
  Stats::reset();
}

TEST(Stats, SnapshotIsNameSortedAndSkipsNothing) {
  Stats::reset();
  Stats::counter("test.zz").add(7);
  Stats::counter("test.aa").add(3);
  auto Snap = Stats::snapshot();
  // Name-sorted regardless of registration order.
  for (std::size_t I = 1; I < Snap.size(); ++I)
    EXPECT_LT(Snap[I - 1].Name, Snap[I].Name);
  bool SawAa = false, SawZz = false;
  for (const StatSnapshot &S : Snap) {
    if (S.Name == "test.aa") {
      SawAa = true;
      EXPECT_EQ(S.Value, 3u);
    }
    if (S.Name == "test.zz") {
      SawZz = true;
      EXPECT_EQ(S.Value, 7u);
    }
  }
  EXPECT_TRUE(SawAa);
  EXPECT_TRUE(SawZz);
  Stats::reset();
}

TEST(Stats, ReportSkipsZeroActivityAndIsDeterministic) {
  Stats::reset();
  Stats::counter("test.report.quiet"); // Registered, never bumped.
  Stats::counter("test.report.busy").add(5);
  std::string R1 = Stats::report();
  std::string R2 = Stats::report();
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(R1.find("test.report.quiet"), std::string::npos);
  EXPECT_NE(R1.find("test.report.busy"), std::string::npos);
  Stats::reset();
}

TEST(Stats, ConcurrentAddsAreLossless) {
  Stats::reset();
  StatCounter &C = Stats::counter("test.stats.mt");
  ThreadPool Pool(4);
  Pool.parallelFor(1000, [&](std::size_t, unsigned) { C.add(); });
  EXPECT_EQ(C.value(), 1000u);
  Stats::reset();
}

TEST(Stats, PercentHelper) {
  EXPECT_DOUBLE_EQ(Stats::percent(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(Stats::percent(1, 3), 25.0);
  EXPECT_DOUBLE_EQ(Stats::percent(5, 0), 100.0);
}

//===----------------------------------------------------------------------===//
// Trace: spans, capture, Chrome-trace JSON (support/Trace.h)
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledRecordsNothing) {
  Trace::clear();
  ASSERT_FALSE(Trace::enabled());
  {
    TraceSpan S("noop", "test");
    S.arg("k", "v");
  }
  Trace::instant("noop", "test");
  EXPECT_TRUE(Trace::take().empty());
}

TEST(Trace, SpansAndInstantsRecordWhenEnabled) {
  Trace::clear();
  Trace::enable();
  {
    TraceSpan S("outer", "test");
    S.arg("k", "v").arg("n", std::uint64_t(7));
    TraceSpan Inner("inner", "test");
  }
  Trace::instant("mark", "test");
  Trace::disable();
  auto Events = Trace::take();
  ASSERT_EQ(Events.size(), 3u);
  // Spans are recorded at close: inner lands before outer.
  EXPECT_EQ(Events[0].Name, "inner");
  EXPECT_EQ(Events[0].Ph, 'X');
  EXPECT_EQ(Events[1].Name, "outer");
  ASSERT_EQ(Events[1].Args.size(), 2u);
  EXPECT_EQ(Events[1].Args[0].first, "k");
  EXPECT_EQ(Events[1].Args[0].second, "v");
  EXPECT_EQ(Events[1].Args[1].second, "7");
  EXPECT_EQ(Events[2].Name, "mark");
  EXPECT_EQ(Events[2].Ph, 'i');
  // The outer span covers the inner one.
  EXPECT_LE(Events[1].Ts, Events[0].Ts);
  EXPECT_GE(Events[1].Ts + Events[1].Dur, Events[0].Ts + Events[0].Dur);
}

TEST(Trace, CaptureDivertsAndRebasesTimestamps) {
  Trace::clear();
  Trace::enable();
  Trace::instant("outside-before", "test");
  std::vector<TraceEvent> Captured;
  {
    TraceCapture Cap;
    Trace::instant("inside", "test");
    { TraceSpan S("span", "test"); }
    Captured = Cap.take();
  }
  Trace::instant("outside-after", "test");
  Trace::disable();

  ASSERT_EQ(Captured.size(), 2u);
  EXPECT_EQ(Captured[0].Name, "inside");
  EXPECT_EQ(Captured[1].Name, "span");

  // The global buffer holds only the outside events.
  auto Global = Trace::take();
  ASSERT_EQ(Global.size(), 2u);
  EXPECT_EQ(Global[0].Name, "outside-before");
  EXPECT_EQ(Global[1].Name, "outside-after");
}

TEST(Trace, RenderJsonShapeAndEscaping) {
  TraceEvent A;
  A.Name = "with \"quotes\"\nand\tcontrol";
  A.Cat = "test";
  A.Ph = 'X';
  A.Ts = 10;
  A.Dur = 5;
  A.Tid = 2;
  A.Args.emplace_back("key", "va\\lue");
  TraceEvent B;
  B.Name = "first-by-tid";
  B.Cat = "test";
  B.Ph = 'i';
  B.Ts = 99;
  B.Tid = 1;
  std::string J = Trace::renderJson({A, B});

  // Escaping: the raw control characters never appear unescaped.
  EXPECT_EQ(J.find('\t'), std::string::npos);
  EXPECT_NE(J.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(J.find("\\n"), std::string::npos);
  EXPECT_NE(J.find("\\t"), std::string::npos);
  EXPECT_NE(J.find("\\\\lue"), std::string::npos);

  // Ordering: events sorted by (tid, ts), so tid 1 renders first.
  EXPECT_LT(J.find("first-by-tid"), J.find("quotes"));

  // Document shape.
  EXPECT_EQ(J.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(J.find("\"displayTimeUnit\""), std::string::npos);

  // Empty document is still a valid trace.
  std::string Empty = Trace::renderJson({});
  EXPECT_EQ(Empty.rfind("{\"traceEvents\":[", 0), 0u);
}

TEST(Trace, WorkerStatsCountersExist) {
  // The counters sldb-fuzz --worker-stats folds into its totals line;
  // interning them here pins the names (a rename breaks this test, not
  // silently the tool).
  for (const char *Name :
       {"classifier.queries", "analysis.cache.hits",
        "analysis.cache.misses", "pipeline.pass.runs",
        "pipeline.pass.changed", "campaign.units"})
    (void)Stats::counter(Name);
  Stats::reset();
  SUCCEED();
}

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, AlignmentIsRespected) {
  Arena A(64); // Small first slab to force growth quickly.
  // Mixed-alignment requests: every returned pointer must satisfy the
  // requested alignment even as the bump pointer crosses slab boundaries.
  for (std::size_t Align : {1u, 2u, 4u, 8u, 16u, 32u}) {
    for (int I = 0; I < 16; ++I) {
      void *P = A.allocate(Align + I, Align);
      ASSERT_NE(P, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(P) % Align, 0u)
          << "misaligned " << Align << "-byte allocation";
    }
  }
}

TEST(Arena, SlabGrowthAndOversizedRequests) {
  Arena A(64);
  EXPECT_EQ(A.bytesAllocated(), 0u);
  // Fill well past the first slab.
  for (int I = 0; I < 100; ++I)
    A.allocate(32, 8);
  EXPECT_GE(A.bytesAllocated(), 3200u);
  EXPECT_GT(A.numSlabs(), 1u);
  EXPECT_GE(A.bytesReserved(), A.bytesAllocated());
  // An allocation far larger than any slab must still succeed (dedicated
  // slab) and be usable end to end.
  std::size_t Before = A.numSlabs();
  char *Big = static_cast<char *>(A.allocate(1 << 22, 8));
  ASSERT_NE(Big, nullptr);
  Big[0] = 1;
  Big[(1 << 22) - 1] = 2; // Touch both ends: the slab really is that big.
  EXPECT_GT(A.numSlabs(), Before);
}

TEST(Arena, ResetReusesReservedMemory) {
  Arena A(128);
  for (int I = 0; I < 200; ++I)
    A.allocate(64, 8);
  std::size_t Reserved = A.bytesReserved();
  std::size_t Slabs = A.numSlabs();
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  // Reset recycles, it does not release: the reservation is unchanged.
  EXPECT_EQ(A.bytesReserved(), Reserved);
  EXPECT_EQ(A.numSlabs(), Slabs);
  // Refilling the same volume must not grow the reservation.
  for (int I = 0; I < 200; ++I)
    A.allocate(64, 8);
  EXPECT_EQ(A.bytesReserved(), Reserved);
  EXPECT_EQ(A.numSlabs(), Slabs);
}

TEST(Arena, SoftLimitIsStickyUntilReset) {
  Arena A(64);
  A.setLimit(256);
  EXPECT_EQ(A.limit(), 256u);
  EXPECT_FALSE(A.limitExceeded());
  // Under budget: nothing trips.
  void *P = A.allocate(128, 8);
  ASSERT_NE(P, nullptr);
  EXPECT_FALSE(A.limitExceeded());
  // The allocation that crosses the budget still succeeds (soft limit:
  // callers built on infallible allocation never see null) but the
  // arena goes sticky-exceeded.
  P = A.allocate(256, 8);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(A.limitExceeded());
  // Sticky: later small allocations do not clear it.
  A.allocate(8, 8);
  EXPECT_TRUE(A.limitExceeded());
  // reset() clears the flag but keeps the budget armed for the next
  // tenant (the service's per-load lifecycle).
  A.reset();
  EXPECT_FALSE(A.limitExceeded());
  EXPECT_EQ(A.limit(), 256u);
  A.allocate(512, 8);
  EXPECT_TRUE(A.limitExceeded());
}

TEST(Arena, TryAllocateIsHard) {
  Arena A(64);
  A.setLimit(128);
  // Within budget: real memory.
  void *P = A.tryAllocate(64, 8);
  ASSERT_NE(P, nullptr);
  EXPECT_FALSE(A.limitExceeded());
  // Over budget: null, nothing allocated, and the sticky flag trips so
  // phase-boundary audits still see the refusal.
  std::size_t Before = A.bytesAllocated();
  EXPECT_EQ(A.tryAllocate(1024, 8), nullptr);
  EXPECT_EQ(A.bytesAllocated(), Before);
  EXPECT_TRUE(A.limitExceeded());
  // The arena itself stays usable for in-budget requests.
  void *Q = A.tryAllocate(32, 8);
  EXPECT_NE(Q, nullptr);
}

TEST(Arena, UnlimitedByDefault) {
  Arena A(64);
  EXPECT_EQ(A.limit(), 0u);
  for (int I = 0; I < 100; ++I)
    A.allocate(1024, 8);
  EXPECT_FALSE(A.limitExceeded());
}

TEST(Arena, MakeConstructsObjects) {
  struct Point {
    int X, Y;
    Point(int X, int Y) : X(X), Y(Y) {}
  };
  Arena A;
  Point *P = A.make<Point>(3, 4);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(P) % alignof(Point), 0u);
}
