//===- tests/fuzz_diff_test.cpp - Differential fuzzing oracle --*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Tier-1 wrapper around the differential fuzzing harness (src/fuzz/):
//
//  * a fixed-seed 200-program corpus must run the lockstep O0/optimized
//    oracle with ZERO soundness violations (the paper's truthfulness
//    guarantee, checked against ground truth instead of proved);
//  * the corpus must actually exercise every endangering optimization —
//    hoisting (PRE/LICM), sinking (PDE), dead-assignment elimination and
//    induction-variable strength reduction — both at the pass level
//    (pipeline firing counts) and at the machine level (hoisted/sunk
//    instructions, MDEAD/MAVAIL markers, SR records);
//  * the harness must have teeth: an intentionally unsound classifier
//    (the undefended FaultInjector points) must be caught;
//  * the reproducer shrinker must preserve the predicate while shrinking;
//  * reproducers name the command that re-judges them under their oracle,
//    and sldb-fuzz refuses flags the selected oracle would ignore;
//  * judging both modes from one SharedBuilds gives, field by field, the
//    results of compiling each mode on its own;
//  * the reference SharedBuilds lowers from the shared frontend run is
//    the unoptimized compile's, and a campaign records each seed's
//    reference session once.
//
//===----------------------------------------------------------------------===//

#include "BackendDigest.h"
#include "core/Classifier.h"
#include "fuzz/Campaign.h"
#include "fuzz/CampaignEngine.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/QualityCampaign.h"
#include "fuzz/Reduce.h"
#include "fuzz/StepOracle.h"
#include "ir/IRGen.h"
#include "support/FaultInjector.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <tuple>

#include <sys/wait.h>

using namespace sldb;

namespace {

/// The fixed tier-1 corpus, run once and shared across tests (a campaign
/// compiles and executes 400 builds; repeating it per test would dominate
/// suite runtime).
const CampaignResult &corpus() {
  static CampaignResult R = [] {
    CampaignConfig C;
    C.Seed = 1;
    C.Count = 200;
    C.BothPromoteModes = true;
    C.Shrink = false;
    C.WriteFailures = false;
    return runCampaign(C);
  }();
  return R;
}

std::string failureSummary(const CampaignResult &R) {
  std::string S;
  for (const CampaignFailure &F : R.Failures) {
    S += "seed " + std::to_string(F.Seed) +
         (F.Promote ? " (promote on): " : " (promote off): ");
    if (!F.Violations.empty())
      S += F.Violations.front().str();
    S += "\n";
  }
  return S;
}

/// Restores the intact classifier even when an assertion fails mid-test.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::disarm(); }
};

/// A double's exact bits, so -0.0 and NaN payloads compare too.
std::uint64_t bitsOf(double D) {
  std::uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

/// Every field of a scope report as a comparable and printable tuple.
auto fields(const VarReport &R) {
  const Classification &C = R.Class;
  const MRecovery &Q = C.Recovery;
  return std::make_tuple(
      R.Var, static_cast<int>(C.Kind),
      static_cast<int>(C.Cause), C.CulpritStmt, C.Recoverable,
      static_cast<int>(Q.K), Q.Imm, bitsOf(Q.FImm),
      static_cast<int>(Q.R.Cls), Q.R.N, Q.Frame, Q.Scale, Q.IsIV,
      static_cast<int>(Q.SrcVreg.Cls), Q.SrcVreg.N, Q.SrcVar, C.Degraded,
      R.HasValue, R.IsDouble, R.IntValue, bitsOf(R.DoubleValue));
}

/// Both reports of an observation and its table, init, raw and pointer
/// facts.
auto fields(const VarObservation &V) {
  return std::tuple_cat(fields(V.Expected), fields(V.Opt),
                        std::make_tuple(V.OptTableResident,
                                        V.ExpectedInitAllPaths, V.RawValid,
                                        V.RawIsDouble, V.RawInt,
                                        bitsOf(V.RawDouble), V.IsPtr));
}

/// The run-level fields of a lockstep result: outcome, end states,
/// outputs and the machine-level evidence counts.
auto fields(const LockstepResult &R) {
  return std::make_tuple(
      R.Compiled, std::string_view(R.CompileError),
      std::string_view(R.PairError), R.Stops.size(), R.Firings.size(),
      static_cast<int>(R.ExpectedEnd), static_cast<int>(R.OptEnd),
      R.ExpectedExit, R.OptExit, std::string_view(R.ExpectedOutput),
      std::string_view(R.OptOutput), R.NumHoisted, R.NumSunk,
      R.NumDeadMarks, R.NumAvailMarks, R.NumSRRecords);
}

auto fields(const StepResult &R) {
  return std::make_tuple(R.Compiled, std::string_view(R.CompileError),
                         R.Capped, R.Visits.size(),
                         static_cast<int>(R.SrcEnd),
                         static_cast<int>(R.OptEnd), R.SrcExit, R.OptExit,
                         std::string_view(R.SrcOutput),
                         std::string_view(R.OptOutput));
}

auto fields(const StepVisit &V) {
  return std::make_tuple(V.Func, V.Stmt, V.Line, V.SrcVisits, V.OptVisits,
                         V.OptHasCode, V.OptAnchored);
}

template <class Tuple> std::string show(const Tuple &T) {
  std::ostringstream OS;
  std::apply([&](const auto &...X) { ((OS << X << ' '), ...); }, T);
  return OS.str();
}

/// Fails naming \p What unless \p A and \p B agree in every field.
template <class T>
::testing::AssertionResult same(const T &A, const T &B,
                                const std::string &What) {
  if (fields(A) == fields(B))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << What << "\n  shared: " << show(fields(A))
         << "\n  fresh:  " << show(fields(B));
}

void expectSameResult(const LockstepResult &A, const LockstepResult &B) {
  ASSERT_TRUE(same(A, B, "run"));
  ASSERT_EQ(A.VarNames, B.VarNames) << "name table";
  for (std::size_t I = 0; I < A.Firings.size(); ++I)
    ASSERT_EQ(std::tie(A.Firings[I].Name, A.Firings[I].Changed),
              std::tie(B.Firings[I].Name, B.Firings[I].Changed));
  for (std::size_t S = 0; S < A.Stops.size(); ++S) {
    const StopObservation &X = A.Stops[S], &Y = B.Stops[S];
    ASSERT_EQ(std::make_tuple(X.Func, X.Stmt, X.Vars.size()),
              std::make_tuple(Y.Func, Y.Stmt, Y.Vars.size()))
        << "stop " << S;
    for (std::size_t V = 0; V < X.Vars.size(); ++V)
      ASSERT_TRUE(same(X.Vars[V], Y.Vars[V],
                       "stop " + std::to_string(S) + " var " +
                           std::to_string(V)));
  }
}

void expectSameResult(const StepResult &A, const StepResult &B) {
  ASSERT_TRUE(same(A, B, "stepping run"));
  for (std::size_t V = 0; V < A.Visits.size(); ++V)
    ASSERT_TRUE(same(A.Visits[V], B.Visits[V], "visit " + std::to_string(V)));
}

} // namespace

TEST(FuzzDiff, FixedCorpusIsSound) {
  const CampaignResult &R = corpus();
  EXPECT_EQ(R.FailedCompiles, 0u)
      << "generated programs must always compile";
  EXPECT_EQ(R.Programs, 200u);
  EXPECT_EQ(R.Runs, 400u) << "each program runs promote-on and promote-off";
  EXPECT_GT(R.Observations, 0u);
  EXPECT_TRUE(R.sound()) << failureSummary(R);
}

TEST(FuzzDiff, CorpusExercisesEveryEndangeringOpt) {
  const CampaignCoverage &Cov = corpus().Coverage;
  // Pass-level: every Table 1 transformation the classifier reasons
  // about fired at least once over the corpus.
  EXPECT_GT(Cov.fired("partial-redundancy-elimination(hoisting)"), 0u);
  EXPECT_GT(Cov.fired("loop-invariant-code-motion"), 0u);
  EXPECT_GT(Cov.fired("partial-dead-code-elimination(sinking)"), 0u);
  EXPECT_GT(Cov.fired("dead-assignment-elimination"), 0u);
  EXPECT_GT(Cov.fired("strength-reduction-and-ivopt"), 0u);
  // Machine-level: the transformations left the artifacts the debugger's
  // analyses consume, so the oracle really judged endangered variables.
  EXPECT_GT(Cov.WithHoisted, 0u) << "no program had a hoisted instruction";
  EXPECT_GT(Cov.WithSunk, 0u) << "no program had a sunk instruction";
  EXPECT_GT(Cov.WithDeadMarks, 0u) << "no program had an MDEAD marker";
  EXPECT_GT(Cov.WithAvailMarks, 0u) << "no program had an MAVAIL marker";
  EXPECT_GT(Cov.WithSRRecords, 0u) << "no program had an SR recovery";
}

namespace {

// Figure-2 shape with loop-computed (unfoldable) values steering
// execution down the ELSE path, where PRE lands the hoisted `x = y + z`:
// at the original occurrence's stop, x already holds the future value.
const char *HoistVictim = R"(
  int main() {
    int u = 0; int v = 0;
    for (int i = 0; i < 3; i = i + 1) { u = u + 1; }
    for (int i = 0; i < 7; i = i + 1) { v = v + 1; }
    int y = v - u;
    int z = v + u;
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

// `int v = a` is dead (overwritten before use) and eliminated with the
// copy recovery `a`; the surviving real assignment `v = s + 1` is the
// only kill of that marker's dead reach.  (The RHS is an Add so neither
// copy- nor constant-propagation can bypass the assignment, and `s` is a
// loop accumulator so nothing folds.)
const char *DeadKillVictim = R"(
  int main() {
    int a = 5;
    int s = 0;
    for (int i = 0; i < 3; i = i + 1) { s = s + i; }
    int v = a;
    v = s + 1;
    print(v);
    print(a);
    return 0;
  }
)";

} // namespace

TEST(FuzzDiff, BrokenHoistReachIsCaught) {
  // Sanity: the intact classifier judges the program sound.
  ASSERT_TRUE(checkProgram(HoistVictim, /*Promote=*/true).empty());

  FaultGuard G;
  FaultInjector::arm(FaultId::ClassifierSuppressHoistGen, /*Seed=*/1);
  std::vector<Violation> V = checkProgram(HoistVictim, /*Promote=*/true);
  ASSERT_FALSE(V.empty())
      << "suppressing hoist-reach GEN must produce an unsound verdict";
  bool SawUnsoundCurrent = false;
  for (const Violation &Viol : V)
    if (Viol.Kind == ViolationKind::UnsoundCurrent)
      SawUnsoundCurrent = true;
  EXPECT_TRUE(SawUnsoundCurrent) << V.front().str();
}

TEST(FuzzDiff, BrokenDeadReachKillIsCaught) {
  ASSERT_TRUE(checkProgram(DeadKillVictim, /*Promote=*/true).empty());

  FaultGuard G;
  FaultInjector::arm(FaultId::ClassifierSuppressDeadAssignKill, /*Seed=*/1);
  std::vector<Violation> V = checkProgram(DeadKillVictim, /*Promote=*/true);
  ASSERT_FALSE(V.empty())
      << "suppressing the dead-reach assignment kill must resurrect the "
         "eliminated copy's recovery past the fresh assignment";
  bool SawBadValue = false;
  for (const Violation &Viol : V)
    if (Viol.Kind == ViolationKind::UnsoundCurrent ||
        Viol.Kind == ViolationKind::WrongRecovery)
      SawBadValue = true;
  EXPECT_TRUE(SawBadValue) << V.front().str();
}

// The diff and step campaigns judge each seed in both modes from one
// SharedBuilds (one optimizer run, one reference, one lowering per mode)
// and, stepping, one walk of the reference.  Every field of every result
// must equal what compiling the mode on its own gives, for the frame
// mode lowered second as for the promote mode lowered first.
TEST(FuzzDiff, SharedBuildsJudgeLikePerModeCompiles) {
  for (bool Alias : {false, true})
    for (std::uint32_t Seed = 1; Seed <= 200; ++Seed) {
      GenOptions GO;
      GO.Alias = Alias;
      const std::string Src = generateProgram(Seed, GO);
      SCOPED_TRACE("seed " + std::to_string(Seed) +
                   (Alias ? " --alias" : ""));
      SharedBuilds Builds(Src, LockstepOptions::lockstepOpts(),
                          /*Instrument=*/true);
      std::optional<StepWalk> RefWalk;
      for (bool Promote : {true, false}) {
        SCOPED_TRACE(Promote ? "promote" : "frame");
        LockstepOptions LO;
        LO.Promote = Promote;
        LO.InstrumentPasses = true;
        LockstepResult Shared = runLockstep(Builds, LO);
        ASSERT_TRUE(Shared.Compiled) << Shared.CompileError;
        ASSERT_FALSE(Shared.Stops.empty());
        expectSameResult(Shared, runLockstep(Src, LO));

        StepOracleOptions SO;
        SO.Promote = Promote;
        expectSameResult(runStepLockstep(Builds, SO, RefWalk),
                         runStepLockstep(Src, SO));
      }
    }
}

/// Folds \p MM's code, tables, integrity findings and globals into \p H.
void hashReferenceBuild(Fnv1a &H, const MachineModule &MM) {
  for (const MachineFunction &MF : MM.Funcs) {
    hashFunction(H, MF, MM.Info);
    H.num(MF.ExpectedDeadMarkers);
    H.num(MF.ExpectedAvailMarkers);
    for (const AnnotationFinding &F : MF.IntegrityFindings) {
      H.num(F.Var);
      H.str(F.Message + "\n");
    }
  }
  H.num(static_cast<std::int64_t>(MM.GlobalWords));
  for (std::size_t A : MM.GlobalAddr)
    H.num(static_cast<std::int64_t>(A));
  for (const auto &[Addr, Init] : MM.GlobalInits) {
    H.num(static_cast<std::int64_t>(Addr));
    H.num(Init.IntVal);
    H.bytes(&Init.DblVal, sizeof Init.DblVal);
  }
}

// SharedBuilds lowers its reference from the IR of the one frontend run,
// before the optimizer rewrites that IR.  It must be the build an
// unoptimized, unpromoted compile of its own makes.
TEST(FuzzDiff, SharedReferenceMatchesUnoptimizedCompile) {
  for (bool Alias : {false, true})
    for (std::uint32_t Seed = 1; Seed <= 200; ++Seed) {
      GenOptions GO;
      GO.Alias = Alias;
      const std::string Src = generateProgram(Seed, GO);
      SCOPED_TRACE("seed " + std::to_string(Seed) +
                   (Alias ? " --alias" : ""));
      SharedBuilds Builds(Src, LockstepOptions::lockstepOpts());
      ASSERT_TRUE(Builds.lower(/*Promote=*/true));
      Expected<CompiledModule> Own =
          compileModule(Src, OptOptions::none(), {false, false});
      ASSERT_TRUE(Own) << Own.status().str();
      Fnv1a Shared, Fresh;
      hashReferenceBuild(Shared, Builds.reference());
      hashReferenceBuild(Fresh, Own->MM);
      EXPECT_EQ(Shared.H, Fresh.H);
    }
}

// A campaign records each seed's reference session once: a diff seed for
// both promote modes, a cross-level seed for every judged level.  A step
// seed walks its reference once for both promote modes.
TEST(FuzzDiff, EachSeedRecordsItsReferenceOnce) {
  const StatCounter &Runs = Stats::counter("lockstep.reference_runs");
  CampaignConfig C;
  C.Seed = 1;
  C.Count = 20;
  C.BothPromoteModes = true;
  C.Shrink = false;
  std::uint64_t Before = Runs.value();
  CampaignResult R = runCampaign(C);
  ASSERT_EQ(R.Runs, 40u);
  EXPECT_EQ(Runs.value() - Before, 20u);

  CrossLevelCampaignConfig X;
  X.Seed = 1;
  X.Count = 3;
  X.Shrink = false;
  Before = Runs.value();
  CrossLevelCampaignResult XR = runCrossLevelCampaign(X);
  ASSERT_GT(XR.LockstepRuns, 3u * 2);
  EXPECT_EQ(Runs.value() - Before, 3u);

  const StatCounter &Walks = Stats::counter("step.reference_walks");
  StepCampaignConfig S;
  S.Seed = 1;
  S.Count = 20;
  S.BothPromoteModes = true;
  S.Shrink = false;
  Before = Walks.value();
  StepCampaignResult SR = runStepCampaign(S);
  ASSERT_EQ(SR.Runs, 40u);
  EXPECT_EQ(Walks.value() - Before, 20u);
}

TEST(FuzzDiff, ShrinkerPreservesPredicateAndShrinks) {
  // Brace-region deletion: the loop and the helper must vanish; the
  // marked line must survive.  The predicate is syntactic so the test is
  // independent of compiler behavior.
  const std::string Src = R"(int helper(int x) {
  int t = x + 1;
  return t;
}
int main() {
  int keep = 42;
  int junk1 = 1;
  int junk2 = 2;
  for (int i = 0; i < 3; i = i + 1) {
    junk1 = junk1 + junk2;
  }
  print(keep);
  return 0;
}
)";
  auto Pred = [](const std::string &S) {
    return S.find("keep = 42") != std::string::npos &&
           S.find("print(keep)") != std::string::npos;
  };
  ASSERT_TRUE(Pred(Src));
  std::string Reduced = reduceProgram(Src, Pred);
  EXPECT_TRUE(Pred(Reduced));
  EXPECT_LT(Reduced.size(), Src.size());
  EXPECT_EQ(Reduced.find("helper"), std::string::npos);
  EXPECT_EQ(Reduced.find("for ("), std::string::npos);
  EXPECT_EQ(Reduced.find("junk2 = 2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Aliasing generator grammar (arrays, pointers, address-taken locals)
//===----------------------------------------------------------------------===//

TEST(FuzzDiff, AliasGeneratorNeverReadsUninitializedArrayElements) {
  // The aliasing grammar's safety discipline: every `int aN[K];`
  // declaration is immediately followed by K constant-index stores, one
  // per element, before any other mention of the array.  This is what
  // makes array reads judgeable against ground truth — a generated read
  // of an uninitialized element would make the oracle's expected value
  // garbage.  Seed 7 is the original regression seed (first corpus seed
  // whose program declares an array); the sweep pins the discipline for
  // the whole tier-1 range.
  GenOptions G;
  G.Alias = true;
  G.AliasPct = 100; // Plant every aliasing idiom: maximize arrays.
  unsigned ArraysSeen = 0;
  for (std::uint32_t Seed = 1; Seed <= 80; ++Seed) {
    std::string Src = generateProgram(Seed, G);
    DiagnosticEngine Diags;
    auto M = compileToIR(Src, Diags);
    ASSERT_TRUE(M != nullptr)
        << "seed " << Seed << " failed to compile:\n" << Diags.str()
        << "\n" << Src;

    // Scan declarations textually: generation is line-oriented.
    std::istringstream In(Src);
    std::vector<std::string> Lines;
    for (std::string L; std::getline(In, L);)
      Lines.push_back(L);
    for (std::size_t I = 0; I < Lines.size(); ++I) {
      std::size_t P = Lines[I].find("int a");
      if (P == std::string::npos ||
          Lines[I].find('[') == std::string::npos)
        continue;
      std::size_t NameEnd = Lines[I].find('[');
      std::string Name = Lines[I].substr(P + 4, NameEnd - P - 4);
      unsigned K = static_cast<unsigned>(
          std::stoul(Lines[I].substr(NameEnd + 1)));
      ++ArraysSeen;
      ASSERT_LE(I + K, Lines.size() - 1) << Src;
      for (unsigned J = 0; J < K; ++J) {
        std::string Expect = Name + "[" + std::to_string(J) + "] = ";
        EXPECT_NE(Lines[I + 1 + J].find(Expect), std::string::npos)
            << "seed " << Seed << ": element " << J << " of " << Name
            << " not initialized immediately after declaration:\n" << Src;
      }
    }
  }
  EXPECT_GT(ArraysSeen, 40u)
      << "the sweep should exercise many array declarations";
}

TEST(FuzzDiff, AliasRegressionSeedStaysSound) {
  // Seed 7 generates an array init/reduce pair plus an address-taken
  // scalar with an indirect store (the shapes that once risked judging
  // a variable against a stale or garbage expected value).  Keep it
  // pinned through the full lockstep oracle in both promote modes.
  CampaignConfig C;
  C.Seed = 7;
  C.Count = 1;
  C.Gen.Alias = true;
  C.Gen.AliasPct = 100;
  C.BothPromoteModes = true;
  C.Shrink = false;
  C.WriteFailures = false;
  CampaignResult R = runCampaign(C);
  EXPECT_EQ(R.FailedCompiles, 0u);
  EXPECT_TRUE(R.sound()) << failureSummary(R);
  EXPECT_GT(R.Observations, 0u);
}

TEST(FuzzDiff, SharedTempRecoveryRegressionSeedsStaySound) {
  // Global CSE gave one temporary two defs; DCE turned a copy of it into
  // a dead marker recovering from the temporary, then deleted one of the
  // temporary's defs.  The marker kept reading the surviving def, whose
  // value is stale on paths that reassign its operand (wrong-recovery).
  // DCE now drops a recovery whose temporary lost any def.
  for (std::uint32_t Seed :
       {16843u, 23062u, 48158u, 52372u, 56251u, 1070253u}) {
    CampaignConfig C;
    C.Seed = Seed;
    C.Count = 1;
    C.Shrink = false;
    C.WriteFailures = false;
    CampaignResult R = runCampaign(C);
    EXPECT_EQ(R.Runs, 2u) << "seed " << Seed;
    EXPECT_TRUE(R.sound()) << "seed " << Seed << ": " << failureSummary(R);
  }
}

TEST(FuzzDiff, SpillRoundsProgramIsSound) {
  // tests/inputs/spill_rounds_2.mc spills over several allocation
  // rounds; reused spill-temp numbers once made the optimized build print
  // wrong values and the debugger show them as current.
  std::ifstream In(std::string(SLDB_INPUT_DIR) + "/spill_rounds_2.mc");
  ASSERT_TRUE(In);
  std::stringstream Buf;
  Buf << In.rdbuf();
  for (bool Promote : {true, false}) {
    std::vector<Violation> Vs = checkProgram(Buf.str(), Promote);
    EXPECT_TRUE(Vs.empty()) << "promote " << Promote << ": "
                            << (Vs.empty() ? "" : Vs.front().str());
  }
}

TEST(FuzzDiff, ReproduceLineNamesTheOraclesCommand) {
  auto ReproduceLine = [](const CampaignFailure &F) {
    std::string S = renderFailure(F);
    std::size_t P = S.find("// Reproduce: ");
    return P == std::string::npos ? S : S.substr(P, S.find('\n', P) - P);
  };
  CampaignFailure F;
  F.Seed = 9;
  F.Oracle = "diff";
  EXPECT_EQ(ReproduceLine(F), "// Reproduce: sldb-fuzz --repro <this file>");
  F.Level = "O2nl-ssa";
  F.Promote = false;
  EXPECT_EQ(ReproduceLine(F), "// Reproduce: sldb-fuzz --repro <this file> "
                              "--level O2nl-ssa --no-promote");
  // Cross-level failures are lockstep failures at one level.
  F.Oracle = "crosslevel";
  EXPECT_EQ(ReproduceLine(F), "// Reproduce: sldb-fuzz --repro <this file> "
                              "--level O2nl-ssa --no-promote");
  F.Oracle = "step";
  F.Level.clear();
  F.Promote = true;
  EXPECT_EQ(ReproduceLine(F),
            "// Reproduce: sldb-fuzz --repro <this file> --oracle=step");
  // The injected fault is armed by the campaign, so the command re-runs
  // the seed's fault matrix with the same grammar and level.
  F.Oracle = "inject";
  F.FaultName = "drop-dead-marker";
  F.Alias = true;
  F.Level = "O2nl-ssa";
  EXPECT_EQ(ReproduceLine(F), "// Reproduce: sldb-fuzz --inject --seed 9 "
                              "--count 1 --alias --level O2nl-ssa");
}

TEST(FuzzDiff, ReproducerFilenameCarriesFaultAndLevel) {
  const std::string Dir =
      ::testing::TempDir() + "sldb-fuzz-writer-" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  CampaignFailure F;
  F.Seed = 9;
  F.Promote = false;
  F.FaultName = "drop-dead-marker";
  F.Level = "O2nl-ssa";
  std::set<std::string> Used;
  EXPECT_EQ(writeReproducer(F, Dir, Used),
            Dir + "/seed-9-drop-dead-marker-O2nl-ssa-frame.minic");
  // A second record with the same stem is kept, not clobbered.
  EXPECT_EQ(writeReproducer(F, Dir, Used),
            Dir + "/seed-9-drop-dead-marker-O2nl-ssa-frame-2.minic");
  std::filesystem::remove_all(Dir);
}

#ifdef SLDB_FUZZ_PATH

namespace {

/// Runs sldb-fuzz with \p Args; returns its exit status and its stdout
/// and stderr together.
std::pair<int, std::string> runFuzz(const std::string &Args) {
  std::string Cmd = std::string("'") + SLDB_FUZZ_PATH + "' " + Args + " 2>&1";
  std::string Out;
  FILE *P = popen(Cmd.c_str(), "r");
  EXPECT_TRUE(P != nullptr) << Cmd;
  if (!P)
    return {-1, Out};
  char Buf[4096];
  std::size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = pclose(P);
  return {WIFEXITED(Status) ? WEXITSTATUS(Status) : -1, Out};
}

} // namespace

TEST(SldbFuzzCli, ReproJudgesUnderTheNamedOracle) {
  // g() returns an uninitialized local, so the two builds disagree on
  // y: the variable-value oracle reports the value shown for y, while
  // the stepping oracle, which judges no values, sees only the output
  // difference.
  const std::string Path = ::testing::TempDir() + "sldb-fuzz-repro.mc";
  std::ofstream(Path) << R"(
    int f() { int a = 42; return a + 1; }
    int g() { int b; return b; }
    int main() {
      int x = f();
      int y = g();
      print(x);
      print(y);
      return 0;
    }
  )";
  auto [Status, Out] = runFuzz("--repro '" + Path + "' --no-promote");
  EXPECT_EQ(Status, 1) << Out;
  EXPECT_EQ(Out.rfind("diff oracle, promote-vars off: ", 0), 0u) << Out;
  EXPECT_NE(Out.find("unsound-current"), std::string::npos) << Out;

  std::tie(Status, Out) =
      runFuzz("--repro '" + Path + "' --no-promote --oracle=step");
  EXPECT_EQ(Status, 1) << Out;
  EXPECT_EQ(Out.rfind("step oracle, promote-vars off: ", 0), 0u) << Out;
  EXPECT_NE(Out.find("behavior-mismatch"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("unsound-current"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(SldbFuzzCli, FlagsTheOracleWouldIgnoreAreUsageErrors) {
  const std::pair<const char *, const char *> Cases[] = {
      {"--oracle=step --isolate", "--isolate"},
      {"--oracle=step --no-isolate", "--no-isolate"},
      {"--oracle=crosslevel --timeout-ms 5", "--timeout-ms"},
      {"--oracle=crosslevel --level O2nl-ssa", "--level"},
      {"--oracle=crosslevel --no-promote", "--no-promote"},
      {"--inject --oracle=step", "--oracle=step"},
      {"--inject --oracle=crosslevel", "--oracle=crosslevel"},
      {"--inject --repro x.mc", "--repro"},
  };
  for (auto [Args, Flag] : Cases) {
    auto [Status, Out] = runFuzz(std::string(Args) + " --count 1 --no-write");
    EXPECT_EQ(Status, 2) << Args << "\n" << Out;
    EXPECT_EQ(Out.rfind(std::string("sldb-fuzz: ") + Flag, 0), 0u)
        << Args << "\n" << Out;
  }
}

TEST(SldbFuzzCli, IntegerFlagsOutsideTheirFieldAreUsageErrors) {
  // Each flag parses into its field's own type: 2^32 once wrapped to 0
  // (--dump-seed 4294967297 printed seed 1), and --jobs is capped like
  // sldbd --jobs, so a large value never starts a thread per unit.  The
  // usage line comes before any unit runs.
  for (const char *Args :
       {"--dump-seed 4294967296", "--seed 4294967296", "--count 4294967296",
        "--jobs 257", "--jobs -1", "--timeout-ms 4294967296"}) {
    auto [Status, Out] =
        runFuzz(std::string(Args) + " --count 1 --no-write --no-shrink");
    EXPECT_EQ(Status, 2) << Args << "\n" << Out;
    EXPECT_EQ(Out.rfind("usage: sldb-fuzz", 0), 0u) << Args << "\n" << Out;
  }
  auto [Status, Out] = runFuzz("--dump-seed 4294967295");
  EXPECT_EQ(Status, 0) << Out;
  EXPECT_NE(Out.find("int main()"), std::string::npos) << Out;
}

#endif // SLDB_FUZZ_PATH
