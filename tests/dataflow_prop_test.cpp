//===- tests/dataflow_prop_test.cpp - Solver vs path oracle ----*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Property test of the generic bit-vector solver against a brute-force
// path-enumeration oracle on random small CFGs: for a union-meet forward
// problem, a fact holds at block entry iff it holds along SOME acyclic-
// unrolled path from the entry; for intersection, iff it holds along ALL
// paths.  This is exactly the "some paths" / "all paths" split the
// paper's Lemmas 2/3 and 5/6 rely on.
//
// Structure: each suite is a TEST_P parameterized over a random seed
// (INSTANTIATE_TEST_SUITE_P at the bottom ranges the seeds), so every
// property is checked over many independently generated CFGs of <= 8
// blocks — small enough that the oracle can enumerate every reachable
// (block, state) pair exactly, large enough for joins, diamonds and back
// edges:
//
//   * DataflowVsOracle.* checks the raw solver on arbitrary random
//     Gen/Kill transfers (the lattice-level property);
//   * MarkerReachVsOracle.* rebuilds the transfers the debugger's two
//     reach analyses actually use — hoist reach (Definition 1: a hoisted
//     instance GENs at its landing site and is KILLed at the original
//     position) and dead reach (Definition 2: a marker GENs itself and
//     *supersedes* every other marker of the same variable; real
//     assignments kill) — from per-block EVENT LISTS, and checks that
//     composing events into block Gen/Kill sets agrees with an oracle
//     that replays the raw events along every path.  This validates the
//     composition step the passes rely on, not just the solver.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"

#include <gtest/gtest.h>

#include <random>

using namespace sldb;

namespace {

struct RandomCFG {
  unsigned N;
  std::vector<std::vector<unsigned>> Preds, Succs;
  std::vector<unsigned> Exits;
  // Per-block transfer over a tiny universe: for each bit, Gen or Kill.
  std::vector<BitVector> Gen, Kill;
  unsigned Universe;
};

/// Solves \p P over \p G's edge lists through the solver's in-place
/// entry.
template <typename Graph>
DataflowResult solve(const Graph &G, const DataflowProblem &P) {
  DataflowResult R;
  solveDataflowGeneric(
      G.N,
      [&](unsigned B) -> const std::vector<unsigned> & { return G.Preds[B]; },
      [&](unsigned B) -> const std::vector<unsigned> & { return G.Succs[B]; },
      G.Exits, P, R);
  return R;
}

RandomCFG makeCFG(unsigned Seed, unsigned Universe = 4) {
  std::mt19937 Rng(Seed);
  RandomCFG G;
  G.N = 3 + Rng() % 6;
  G.Universe = Universe;
  G.Preds.resize(G.N);
  G.Succs.resize(G.N);
  // A connected-ish DAG skeleton plus a few random extra/back edges.
  for (unsigned B = 0; B + 1 < G.N; ++B) {
    unsigned T = B + 1 + Rng() % (G.N - B - 1);
    G.Succs[B].push_back(T);
    G.Preds[T].push_back(B);
    if (Rng() % 2) {
      unsigned T2 = B + 1 + Rng() % (G.N - B - 1);
      if (T2 != T) {
        G.Succs[B].push_back(T2);
        G.Preds[T2].push_back(B);
      }
    }
  }
  // Ensure every block is reachable (the compiler deletes unreachable
  // blocks before analysis; the solver is conservative, not exact, at
  // joins fed by unreachable code).
  for (unsigned B = 1; B < G.N; ++B)
    if (G.Preds[B].empty()) {
      unsigned From = Rng() % B;
      G.Succs[From].push_back(B);
      G.Preds[B].push_back(From);
    }
  // One optional back edge for loop coverage.
  if (Rng() % 2 && G.N > 2) {
    unsigned From = 1 + Rng() % (G.N - 1);
    unsigned To = Rng() % From;
    G.Succs[From].push_back(To);
    G.Preds[To].push_back(From);
  }
  for (unsigned B = 0; B < G.N; ++B)
    if (G.Succs[B].empty())
      G.Exits.push_back(B);
  if (G.Exits.empty())
    G.Exits.push_back(G.N - 1);

  G.Gen.assign(G.N, BitVector(Universe));
  G.Kill.assign(G.N, BitVector(Universe));
  for (unsigned B = 0; B < G.N; ++B)
    for (unsigned Bit = 0; Bit < Universe; ++Bit) {
      unsigned R = Rng() % 4;
      if (R == 0)
        G.Gen[B].set(Bit);
      else if (R == 1)
        G.Kill[B].set(Bit);
    }
  return G;
}

/// Oracle: enumerates all paths from the entry of length <= Depth,
/// recording which facts can reach each block entry (Some) and which
/// reach on every enumerated complete visit (All).  Cyclic graphs are
/// handled by unrolling: with Depth >= N * (Universe + 2), the bit-vector
/// fixed point and the path semantics agree on these small graphs.
struct PathOracle {
  std::vector<BitVector> SomeIn;      ///< Union over paths.
  std::vector<BitVector> AllIn;       ///< Intersection over paths.
  std::vector<bool> Reached;

  explicit PathOracle(const RandomCFG &G) {
    SomeIn.assign(G.N, BitVector(G.Universe));
    AllIn.assign(G.N, BitVector(G.Universe, true));
    Reached.assign(G.N, false);
    Seen.assign(G.N, std::vector<bool>(1u << G.Universe, false));
    BitVector Empty(G.Universe);
    walk(G, 0, Empty);
  }

private:
  static unsigned mask(const BitVector &BV) {
    unsigned M = 0;
    for (unsigned I : BV)
      M |= 1u << I;
    return M;
  }

  void walk(const RandomCFG &G, unsigned B, const BitVector &In) {
    // Exact-state memoization: the universe is tiny, so the set of
    // reachable (block, state) pairs is finite and fully enumerable —
    // every distinct arriving state is explored exactly once.
    unsigned M = mask(In);
    if (Seen[B][M])
      return;
    Seen[B][M] = true;
    if (!Reached[B]) {
      Reached[B] = true;
      SomeIn[B] = In;
      AllIn[B] = In;
    } else {
      SomeIn[B] |= In;
      AllIn[B] &= In;
    }
    BitVector Out = In;
    Out.subtract(G.Kill[B]);
    Out |= G.Gen[B];
    for (unsigned Succ : G.Succs[B])
      walk(G, Succ, Out);
  }

  std::vector<std::vector<bool>> Seen;
};

class DataflowVsOracle : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(DataflowVsOracle, UnionMeetMatchesSomePath) {
  RandomCFG G = makeCFG(GetParam());
  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Meet = FlowMeet::Union;
  P.Universe = G.Universe;
  P.Gen = G.Gen;
  P.Kill = G.Kill;
  P.Boundary = BitVector(G.Universe);
  DataflowResult R = solve(G, P);

  PathOracle O(G);
  for (unsigned B = 0; B < G.N; ++B) {
    if (!O.Reached[B])
      continue; // Unreachable blocks are don't-care.
    EXPECT_EQ(R.In[B], O.SomeIn[B]) << "block " << B;
  }
}

TEST_P(DataflowVsOracle, IntersectMeetMatchesAllPaths) {
  RandomCFG G = makeCFG(GetParam() + 500);
  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Meet = FlowMeet::Intersect;
  P.Universe = G.Universe;
  P.Gen = G.Gen;
  P.Kill = G.Kill;
  P.Boundary = BitVector(G.Universe);
  DataflowResult R = solve(G, P);

  PathOracle O(G);
  for (unsigned B = 0; B < G.N; ++B) {
    if (!O.Reached[B])
      continue;
    // The solver must never claim a fact that fails on some path
    // (soundness for the paper's "all paths" = noncurrent claims) ...
    EXPECT_TRUE(R.In[B].isSubsetOf(O.AllIn[B])) << "block " << B;
    // ... and on these small graphs it is exact.
    EXPECT_EQ(R.In[B], O.AllIn[B]) << "block " << B;
  }
}

TEST_P(DataflowVsOracle, SomeAlwaysContainsAll) {
  RandomCFG G = makeCFG(GetParam() + 9000);
  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Universe = G.Universe;
  P.Gen = G.Gen;
  P.Kill = G.Kill;
  P.Boundary = BitVector(G.Universe);
  P.Meet = FlowMeet::Union;
  DataflowResult Some = solve(G, P);
  P.Meet = FlowMeet::Intersect;
  DataflowResult All = solve(G, P);
  // Lattice sanity behind Lemmas 2/3 and 5/6: whatever holds on all
  // paths holds on some path (for reachable blocks).
  PathOracle O(G);
  for (unsigned B = 0; B < G.N; ++B)
    if (O.Reached[B]) {
      EXPECT_TRUE(All.In[B].isSubsetOf(Some.In[B])) << "block " << B;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataflowVsOracle,
                         ::testing::Range(0u, 50u));

//===----------------------------------------------------------------------===//
// Marker-shaped transfers: hoist reach and dead reach with supersession.
//===----------------------------------------------------------------------===//

namespace {

/// One instruction-like event inside a block, in program order.
struct Event {
  enum KindT {
    Marker, ///< Dead marker of Var with instance id Id: gen self,
            ///< supersede (kill) all other markers of Var.
    Assign, ///< Real assignment to Var: kill all markers of Var.
    HoistLand, ///< Hoisted instance Id lands here: gen Id.
    Original   ///< Original position of instance Id: kill Id.
  } Kind;
  unsigned Var = 0; ///< For Marker/Assign.
  unsigned Id = 0;  ///< Marker / hoisted-instance id.
};

struct EventCFG {
  unsigned N = 0;
  std::vector<std::vector<unsigned>> Preds, Succs;
  std::vector<unsigned> Exits;
  std::vector<std::vector<Event>> Events; ///< Per block, program order.
  unsigned Universe = 0;                  ///< Number of instance ids.
  unsigned NumVars = 0;
  std::vector<unsigned> IdVar; ///< Var of each marker id (dead reach).
};

/// Random <= 8 block topology (same construction as makeCFG).
void makeTopology(std::mt19937 &Rng, EventCFG &G) {
  G.N = 3 + Rng() % 6;
  G.Preds.resize(G.N);
  G.Succs.resize(G.N);
  for (unsigned B = 0; B + 1 < G.N; ++B) {
    unsigned T = B + 1 + Rng() % (G.N - B - 1);
    G.Succs[B].push_back(T);
    G.Preds[T].push_back(B);
    if (Rng() % 2) {
      unsigned T2 = B + 1 + Rng() % (G.N - B - 1);
      if (T2 != T) {
        G.Succs[B].push_back(T2);
        G.Preds[T2].push_back(B);
      }
    }
  }
  for (unsigned B = 1; B < G.N; ++B)
    if (G.Preds[B].empty()) {
      unsigned From = Rng() % B;
      G.Succs[From].push_back(B);
      G.Preds[B].push_back(From);
    }
  if (Rng() % 2 && G.N > 2) {
    unsigned From = 1 + Rng() % (G.N - 1);
    unsigned To = Rng() % From;
    G.Succs[From].push_back(To);
    G.Preds[To].push_back(From);
  }
  for (unsigned B = 0; B < G.N; ++B)
    if (G.Succs[B].empty())
      G.Exits.push_back(B);
  if (G.Exits.empty())
    G.Exits.push_back(G.N - 1);
}

/// Dead-reach shape: markers of NumVars variables plus real assignments.
EventCFG makeDeadReachCFG(unsigned Seed) {
  std::mt19937 Rng(Seed);
  EventCFG G;
  makeTopology(Rng, G);
  G.NumVars = 2;
  unsigned NextId = 0;
  G.Events.resize(G.N);
  for (unsigned B = 0; B < G.N; ++B) {
    unsigned Count = Rng() % 3;
    for (unsigned K = 0; K < Count && NextId < 5; ++K) {
      unsigned V = Rng() % G.NumVars;
      if (Rng() % 2) {
        G.Events[B].push_back({Event::Marker, V, NextId});
        G.IdVar.push_back(V);
        ++NextId;
      } else {
        G.Events[B].push_back({Event::Assign, V, 0});
      }
    }
  }
  G.Universe = NextId;
  return G;
}

/// Hoist-reach shape: each instance lands (gen) in one block and has its
/// original position (kill) in a later-or-equal random block.
EventCFG makeHoistReachCFG(unsigned Seed) {
  std::mt19937 Rng(Seed);
  EventCFG G;
  makeTopology(Rng, G);
  G.Events.resize(G.N);
  unsigned Instances = 1 + Rng() % 4;
  G.Universe = Instances;
  for (unsigned Id = 0; Id < Instances; ++Id) {
    unsigned Land = Rng() % G.N;
    unsigned Orig = Rng() % G.N;
    G.Events[Land].push_back({Event::HoistLand, 0, Id});
    G.Events[Orig].push_back({Event::Original, 0, Id});
  }
  return G;
}

/// Applies one event to a reaching set, mirroring the analyses' rules.
void applyEvent(const EventCFG &G, const Event &E, BitVector &S) {
  switch (E.Kind) {
  case Event::Marker:
    for (unsigned Id = 0; Id < G.Universe; ++Id)
      if (G.IdVar[Id] == E.Var)
        S.reset(Id); // Supersession: newest marker wins.
    S.set(E.Id);
    break;
  case Event::Assign:
    for (unsigned Id = 0; Id < G.Universe; ++Id)
      if (G.IdVar[Id] == E.Var)
        S.reset(Id);
    break;
  case Event::HoistLand:
    S.set(E.Id);
    break;
  case Event::Original:
    S.reset(E.Id);
    break;
  }
}

/// Composes a block's events into Gen/Kill exactly the way the passes
/// build their transfer functions: a kill clears any earlier gen; a gen
/// clears any earlier kill.
void composeBlock(const EventCFG &G, unsigned B, BitVector &Gen,
                  BitVector &Kill) {
  Gen = BitVector(G.Universe);
  Kill = BitVector(G.Universe);
  auto KillId = [&](unsigned Id) {
    Gen.reset(Id);
    Kill.set(Id);
  };
  auto GenId = [&](unsigned Id) {
    Gen.set(Id);
    Kill.reset(Id);
  };
  for (const Event &E : G.Events[B])
    switch (E.Kind) {
    case Event::Marker:
      for (unsigned Id = 0; Id < G.Universe; ++Id)
        if (G.IdVar[Id] == E.Var)
          KillId(Id);
      GenId(E.Id);
      break;
    case Event::Assign:
      for (unsigned Id = 0; Id < G.Universe; ++Id)
        if (G.IdVar[Id] == E.Var)
          KillId(Id);
      break;
    case Event::HoistLand:
      GenId(E.Id);
      break;
    case Event::Original:
      KillId(E.Id);
      break;
    }
}

/// Path oracle replaying raw events (not composed sets) along every
/// path, with exact-state memoization as in PathOracle.
struct EventOracle {
  std::vector<BitVector> SomeIn, AllIn;
  std::vector<bool> Reached;

  explicit EventOracle(const EventCFG &G) {
    SomeIn.assign(G.N, BitVector(G.Universe));
    AllIn.assign(G.N, BitVector(G.Universe, true));
    Reached.assign(G.N, false);
    Seen.assign(G.N, std::vector<bool>(1u << G.Universe, false));
    BitVector Empty(G.Universe);
    walk(G, 0, Empty);
  }

private:
  static unsigned mask(const BitVector &BV) {
    unsigned M = 0;
    for (unsigned I : BV)
      M |= 1u << I;
    return M;
  }

  void walk(const EventCFG &G, unsigned B, const BitVector &In) {
    unsigned M = mask(In);
    if (Seen[B][M])
      return;
    Seen[B][M] = true;
    if (!Reached[B]) {
      Reached[B] = true;
      SomeIn[B] = In;
      AllIn[B] = In;
    } else {
      SomeIn[B] |= In;
      AllIn[B] &= In;
    }
    BitVector Out = In;
    for (const Event &E : G.Events[B])
      applyEvent(G, E, Out);
    for (unsigned Succ : G.Succs[B])
      walk(G, Succ, Out);
  }

  std::vector<std::vector<bool>> Seen;
};

void solveBoth(const EventCFG &G, DataflowResult &Some,
               DataflowResult &All) {
  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Universe = G.Universe;
  P.Gen.resize(G.N);
  P.Kill.resize(G.N);
  for (unsigned B = 0; B < G.N; ++B)
    composeBlock(G, B, P.Gen[B], P.Kill[B]);
  P.Boundary = BitVector(G.Universe);
  P.Meet = FlowMeet::Union;
  Some = solve(G, P);
  P.Meet = FlowMeet::Intersect;
  All = solve(G, P);
}

class MarkerReachVsOracle : public ::testing::TestWithParam<unsigned> {};

} // namespace

// Dead reach (Definition 2): DeadSome must equal "some path carries the
// marker"; DeadAll must never claim a marker a path refutes — that claim
// is what lets the classifier report Noncurrent and substitute a
// recovery, so a false positive there is user-visible unsoundness.
TEST_P(MarkerReachVsOracle, DeadReachSupersedeMatchesPathReplay) {
  EventCFG G = makeDeadReachCFG(GetParam());
  if (G.Universe == 0)
    return; // No markers generated for this seed; nothing to check.
  DataflowResult Some, All;
  solveBoth(G, Some, All);
  EventOracle O(G);
  for (unsigned B = 0; B < G.N; ++B) {
    if (!O.Reached[B])
      continue;
    EXPECT_EQ(Some.In[B], O.SomeIn[B]) << "block " << B;
    EXPECT_TRUE(All.In[B].isSubsetOf(O.AllIn[B])) << "block " << B;
    EXPECT_EQ(All.In[B], O.AllIn[B]) << "block " << B;
  }
}

// Hoist reach (Definition 1): gen at the landing site, kill at the
// original position.  HoistAll drives the unconditional Noncurrent/
// Premature verdict, so it must match the all-paths truth exactly.
TEST_P(MarkerReachVsOracle, HoistReachMatchesPathReplay) {
  EventCFG G = makeHoistReachCFG(GetParam() + 1234);
  DataflowResult Some, All;
  solveBoth(G, Some, All);
  EventOracle O(G);
  for (unsigned B = 0; B < G.N; ++B) {
    if (!O.Reached[B])
      continue;
    EXPECT_EQ(Some.In[B], O.SomeIn[B]) << "block " << B;
    EXPECT_TRUE(All.In[B].isSubsetOf(O.AllIn[B])) << "block " << B;
    EXPECT_EQ(All.In[B], O.AllIn[B]) << "block " << B;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarkerReachVsOracle,
                         ::testing::Range(0u, 50u));
