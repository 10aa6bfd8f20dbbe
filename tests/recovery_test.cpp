//===- tests/recovery_test.cpp - §2.5 recovery vs the O0 oracle -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Paper §2.5 / Figure 4: when dead-code elimination removes an
// assignment whose value still exists elsewhere (a constant, another
// variable's location, or a strength-reduced temporary), the debugger
// *recovers* the expected value and shows the variable as Current
// instead of warning.  Each case here is validated against the
// unoptimized-build oracle: the recovered value must equal the value an
// unoptimized execution would have produced, at every paired stop.
//
//===----------------------------------------------------------------------===//

#include "TestCompile.h"
#include "core/Debugger.h"
#include "fuzz/DiffCheck.h"
#include "fuzz/Oracle.h"

#include <gtest/gtest.h>

using namespace sldb;

namespace {

std::string violationText(const std::vector<Violation> &V) {
  std::string S;
  for (const Violation &Viol : V)
    S += Viol.str() + "\n";
  return S;
}

/// Runs the lockstep oracle (both codegen configurations) and asserts the
/// run compiled, paired, and produced zero soundness violations.
/// Returns the promote-on result for further inspection.
LockstepResult soundLockstep(const char *Src) {
  for (bool Promote : {false, true}) {
    LockstepOptions O;
    O.Promote = Promote;
    LockstepResult R = runLockstep(Src, O);
    EXPECT_TRUE(R.Compiled) << R.CompileError;
    EXPECT_TRUE(R.PairError.empty()) << R.PairError;
    std::vector<Violation> V = checkSoundness(R);
    EXPECT_TRUE(V.empty()) << violationText(V);
    if (Promote)
      return R;
  }
  return {};
}

/// The observation of variable \p Name at the first stop on \p Stmt.
[[maybe_unused]] const VarObservation *
findObservation(const LockstepResult &R, StmtId Stmt,
                const std::string &Name) {
  for (const StopObservation &S : R.Stops) {
    if (S.Stmt != Stmt)
      continue;
    for (const VarObservation &VO : S.Vars)
      if (VO.Expected.Name == Name)
        return &VO;
  }
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Figure 4: the eliminated copy's value survives in another variable.
//===----------------------------------------------------------------------===//

// `x = s` is bypassed by copy propagation (print uses s directly), the
// now-dead assignment is eliminated, and the dead marker carries the
// recovery "x's expected value is in s's location".  s is a loop
// accumulator so no constant folding can interfere.
TEST(Recovery, CopyRecoveryFromOtherVariable) {
  const char *Src = R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 4; i = i + 1) { s = s + i; }
      int x = s;
      print(x);
      return 0;
    }
  )";
  LockstepResult R = soundLockstep(Src);

  // Statements: s0 `int s`, s1 for-init, ... `int x = s` and `print(x)`
  // are the last two statements before `return`.  Locate by name at the
  // print stop instead of hard-coding ids.
  const VarObservation *Seen = nullptr;
  for (const StopObservation &S : R.Stops)
    for (const VarObservation &VO : S.Vars)
      if (VO.Expected.Name == "x" && VO.Opt.Class.Recoverable)
        Seen = &VO;
  ASSERT_NE(Seen, nullptr) << "x was never classified as recoverable";
  EXPECT_EQ(Seen->Opt.Class.Kind, VarClass::Current);
  ASSERT_TRUE(Seen->Opt.HasValue);
  ASSERT_TRUE(Seen->Expected.HasValue);
  EXPECT_EQ(Seen->Opt.IntValue, Seen->Expected.IntValue)
      << "recovered value differs from the unoptimized semantics";
  EXPECT_EQ(Seen->Opt.IntValue, 6) << "0+1+2+3";
}

//===----------------------------------------------------------------------===//
// Constant recovery: the eliminated assignment's RHS was a constant.
//===----------------------------------------------------------------------===//

TEST(Recovery, ConstantRecoveryAfterPropagation) {
  const char *Src = R"(
    int main() {
      int x = 5;
      int y = x + 2;
      print(y);
      return 0;
    }
  )";
  // Constant propagation folds y = 7, x = 5 dies, and the marker keeps
  // the immediate.  Direct classifier check at the print stop (s2):
  auto [IR, MM] = compileOrAbort(Src, LockstepOptions::lockstepOpts());
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);

  VarId X = InvalidVar;
  for (VarId V : MM.Info->func(MM.Info->findFunc("main")).Locals)
    if (MM.Info->var(V).Name == "x")
      X = V;
  ASSERT_NE(X, InvalidVar);
  ASSERT_GE(MF.StmtAddr.size(), 3u);
  ASSERT_GE(MF.StmtAddr[2], 0);
  Classification At = C.classify(static_cast<std::uint32_t>(MF.StmtAddr[2]), X);
  EXPECT_EQ(At.Kind, VarClass::Current);
  EXPECT_TRUE(At.Recoverable);
  EXPECT_EQ(At.Recovery.K, MRecovery::Kind::Imm);
  EXPECT_EQ(At.Recovery.Imm, 5);

  // And the oracle agrees end-to-end in both codegen configurations.
  soundLockstep(Src);
}

//===----------------------------------------------------------------------===//
// Strength reduction: a source IV recovered from the SR temporary.
//===----------------------------------------------------------------------===//

// `j = i * 4` is strength-reduced into an additive temporary; the
// then-redundant source assignment to j is eliminated and the dead
// marker carries "j's expected value is in the SR temporary".  (The
// basic IV i itself survives: its update `i = i + 1` keeps itself live
// under plain liveness, so only derived variables die.)  The oracle
// checks the recovered value at every in-loop stop, iteration by
// iteration — each with a DIFFERENT expected value, so a recovery that
// merely replays a stale snapshot would fail.
TEST(Recovery, StrengthReducedRecoveryFromSRTemp) {
  const char *Src = R"(
    int main() {
      int t = 0;
      for (int i = 0; i < 8; i = i + 1) {
        int j = i * 4;
        t = t + j;
      }
      print(t);
      return 0;
    }
  )";
  LockstepResult R = soundLockstep(Src);
  EXPECT_GT(R.NumSRRecords, 0u) << "strength reduction did not fire";

  unsigned RecoveredStops = 0;
  bool SawNonzero = false;
  for (const StopObservation &S : R.Stops)
    for (const VarObservation &VO : S.Vars)
      if (VO.Expected.Name == "j" && VO.Opt.Class.Recoverable &&
          VO.Opt.Class.Kind == VarClass::Current && VO.Opt.HasValue &&
          VO.Expected.HasValue &&
          VO.Opt.IntValue == VO.Expected.IntValue) {
        ++RecoveredStops;
        if (VO.Opt.IntValue != 0)
          SawNonzero = true;
      }
  EXPECT_GT(RecoveredStops, 4u)
      << "expected j to be recovered across multiple loop iterations";
  EXPECT_TRUE(SawNonzero) << "recovery never tracked the moving SR temp";
}

//===----------------------------------------------------------------------===//
// Negative case: recovery must be DROPPED once the source is overwritten.
//===----------------------------------------------------------------------===//

// The eliminated `x = s` records recovery-from-s, but s is reassigned
// before the stop: recovering would show 14 where the source semantics
// say 6.  The classifier must fall back to an honest warning
// (conservative is OK; recovery here would be unsound).  s is a loop
// accumulator, so copy propagation cannot redirect the recovery to an
// untouched variable and constant propagation cannot fold it away.
TEST(Recovery, TaintedRecoveryFallsBackToWarning) {
  const char *Src = R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 2; i = i + 1) { s = s + 3; }
      int x = s;
      s = s + 8;
      print(s);
      return 0;
    }
  )";
  LockstepResult R = soundLockstep(Src);

  // At the print stop, x must not be presented as Current: its only
  // recovery source was overwritten.
  const VarObservation *AtPrint = nullptr;
  for (const StopObservation &S : R.Stops)
    for (const VarObservation &VO : S.Vars)
      if (VO.Expected.Name == "x")
        AtPrint = &VO; // last stop observing x == the print
  ASSERT_NE(AtPrint, nullptr);
  EXPECT_NE(AtPrint->Opt.Class.Kind, VarClass::Current)
      << "recovery from an overwritten source must be invalidated";
}
