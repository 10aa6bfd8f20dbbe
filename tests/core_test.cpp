//===- tests/core_test.cpp - Classifier + Debugger tests -------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// Reproduces the paper's Figure 2 (code hoisting) and Figure 3 (dead code
// elimination / sinking) classifications end-to-end, plus the soundness
// property of Figure 1: a value shown without warning is always the
// source-level expected value.
//
//===----------------------------------------------------------------------===//

#include "BackendDigest.h"
#include "TestCompile.h"
#include "core/Debugger.h"
#include "eval/Levels.h"
#include "eval/Programs.h"
#include "fuzz/ProgramGen.h"
#include "ir/IRPrinter.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <random>

using namespace sldb;

namespace {

VarId findVar(const MachineModule &MM, const std::string &Name,
              const std::string &Func) {
  FuncId F = MM.Info->findFunc(Func);
  for (VarId V : MM.Info->func(F).Locals)
    if (MM.Info->var(V).Name == Name)
      return V;
  return InvalidVar;
}

/// Finds the first function-local address matching \p Pred in main.
template <typename PredT>
std::int64_t findAddr(const MachineFunction &MF, PredT Pred) {
  std::uint32_t Addr = 0;
  for (const MachineBlock &B : MF.Blocks)
    for (const MInstr &I : B.Insts) {
      if (Pred(I))
        return Addr;
      ++Addr;
    }
  return -1;
}

} // namespace

//===----------------------------------------------------------------------===//
// Figure 2: code hoisting
//===----------------------------------------------------------------------===//

namespace {
OptOptions preOnly() {
  OptOptions O = OptOptions::none();
  O.PRE = true;
  return O;
}
const char *Fig2 = R"(
  int main() {
    int u = 7; int v = 3; int y = 2; int z = 4;
    int x = u - v;        // s4: E0
    if (u > v) {
      x = y + z;          // s6: E1
    } else {
      u = u + 1;          // s7 (hoisted E3 lands after this)
    }
    x = y + z;            // s8: E2 -> avail marker
    print(x);             // s9: Bkpt3
    print(u);
    return 0;
  }
)";
} // namespace

TEST(Figure2, SuspectAtJoinCurrentAfterMarker) {
  auto [IR, MM] = compileOrAbort(Fig2, preOnly());
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = findVar(MM, "x", "main");
  ASSERT_NE(X, InvalidVar);

  // Statement ids: u=0, v=1, y=2, z=3, x=u-v=4, if=5, x=y+z=6, u=u+1=7,
  // x=y+z=8, print(x)=9, print(u)=10, return=11.
  ASSERT_GE(MF.StmtAddr.size(), 10u);

  // Bkpt2 == the avail marker position of E2 (statement 8): x is suspect
  // (premature on the else path, current on the then path).
  std::int32_t Bkpt2 = MF.StmtAddr[8];
  ASSERT_GE(Bkpt2, 0);
  Classification At8 = C.classify(static_cast<std::uint32_t>(Bkpt2), X);
  EXPECT_EQ(At8.Kind, VarClass::Suspect)
      << printMachineFunction(MF, MM.Info);
  EXPECT_EQ(At8.Cause, EndangerCause::MaybePremature);

  // Bkpt3 == print(x) (statement 9): all paths passed the redundant
  // copy's marker; x is current.
  std::int32_t Bkpt3 = MF.StmtAddr[9];
  ASSERT_GE(Bkpt3, 0);
  Classification At9 = C.classify(static_cast<std::uint32_t>(Bkpt3), X);
  EXPECT_EQ(At9.Kind, VarClass::Current)
      << printMachineFunction(MF, MM.Info);
}

TEST(Figure2, NoncurrentRightAfterHoistedInstance) {
  auto [IR, MM] = compileOrAbort(Fig2, preOnly());
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = findVar(MM, "x", "main");

  // Find the hoisted instance; immediately after it (Bkpt1 of the
  // paper), x is noncurrent: the assignment executed prematurely and no
  // path to that point avoids it.
  std::int64_t HoistAddr = findAddr(MF, [](const MInstr &I) {
    return I.IsHoisted && I.DestVar != InvalidVar;
  });
  ASSERT_GE(HoistAddr, 0) << printMachineFunction(MF, MM.Info);
  Classification After =
      C.classify(static_cast<std::uint32_t>(HoistAddr + 1), X);
  EXPECT_EQ(After.Kind, VarClass::Noncurrent)
      << printMachineFunction(MF, MM.Info);
  EXPECT_EQ(After.Cause, EndangerCause::Premature);
  EXPECT_NE(After.CulpritStmt, InvalidStmt);
}

TEST(Figure2, WarningTextMentionsPrematureExecution) {
  auto [IR, MM] = compileOrAbort(Fig2, preOnly());
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = findVar(MM, "x", "main");
  std::int64_t HoistAddr = findAddr(MF, [](const MInstr &I) {
    return I.IsHoisted && I.DestVar != InvalidVar;
  });
  ASSERT_GE(HoistAddr, 0);
  Classification After =
      C.classify(static_cast<std::uint32_t>(HoistAddr + 1), X);
  std::string W = warningText(After, MM.Info->var(X).Name);
  EXPECT_NE(W.find("noncurrent"), std::string::npos);
  EXPECT_NE(W.find("hoisted"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Figure 3: dead-code elimination / sinking
//===----------------------------------------------------------------------===//

namespace {
OptOptions pdeOnly() {
  OptOptions O = OptOptions::none();
  O.PDE = true;
  return O;
}
const char *Fig3 = R"(
  int main() {
    int u = 5; int v = 2; int y = 3; int z = 4;
    int x = y + z;       // s4: E0, partially dead -> sunk, marker here
    if (u > v) {
      x = u - v;         // s6: E1
      print(x);          // s7
    } else {
      print(x);          // s8 (sunk copy lands before this)
    }
    print(u);            // s9: join
    return 0;
  }
)";
} // namespace

TEST(Figure3, NoncurrentBetweenMarkerAndSunkCopy) {
  // Without register promotion (Figure 5(a) configuration) every
  // variable is memory-resident, so dead-code endangerment is visible as
  // noncurrent/suspect rather than being masked by nonresidency (the
  // masking itself is the paper's Figure 5(b) finding).
  auto [IR, MM] = compileOrAbort(Fig3, pdeOnly(), {.PromoteVars = false});
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = findVar(MM, "x", "main");
  ASSERT_NE(X, InvalidVar);

  // At the `if` statement (s5), the dead marker for x has been passed on
  // the only path: x is noncurrent (stale), Lemma 5.
  ASSERT_GE(MF.StmtAddr.size(), 6u);
  std::int32_t AtIf = MF.StmtAddr[5];
  ASSERT_GE(AtIf, 0);
  Classification CIf = C.classify(static_cast<std::uint32_t>(AtIf), X);
  EXPECT_EQ(CIf.Kind, VarClass::Noncurrent)
      << printMachineFunction(MF, MM.Info);
  EXPECT_EQ(CIf.Cause, EndangerCause::Stale);
  EXPECT_EQ(CIf.CulpritStmt, 4u);
}

TEST(Figure3, RecoveredOrCurrentAtUses) {
  auto [IR, MM] = compileOrAbort(Fig3, pdeOnly(), {.PromoteVars = false});
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = findVar(MM, "x", "main");

  // At print(x) in the else branch (s8), the sunk copy has executed:
  // x is current (the assignment's value arrived, just later).
  std::int32_t AtS8 = MF.StmtAddr[8];
  ASSERT_GE(AtS8, 0);
  Classification C8 = C.classify(static_cast<std::uint32_t>(AtS8), X);
  EXPECT_EQ(C8.Kind, VarClass::Current)
      << printMachineFunction(MF, MM.Info);

  // At print(x) in the then branch (s7), x was redefined by E1: current.
  std::int32_t AtS7 = MF.StmtAddr[7];
  ASSERT_GE(AtS7, 0);
  Classification C7 = C.classify(static_cast<std::uint32_t>(AtS7), X);
  EXPECT_EQ(C7.Kind, VarClass::Current);
}

TEST(Figure3, SuspectAtJoin) {
  // Variant where x stays dead on the then-path all the way to the join:
  // suspect there (Lemma 6 / paper Bkpt5).
  const char *Src = R"(
    int main() {
      int u = 5; int v = 2; int y = 3; int z = 4;
      int x = y + z;
      if (u > v) {
        u = u + 9;        // x stays stale on this path
      } else {
        print(x);         // sunk copy of x lands before this
      }
      print(u);           // join: x suspect (paper Bkpt5)
      x = u - v;          // like the paper's E1: x current again
      print(x);           // paper Bkpt6
      return 0;
    }
  )";
  auto [IR, MM] = compileOrAbort(Src, pdeOnly(), {.PromoteVars = false});
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = findVar(MM, "x", "main");

  std::int32_t AtJoin = MF.StmtAddr[8]; // print(u)
  ASSERT_GE(AtJoin, 0);
  Classification CJ = C.classify(static_cast<std::uint32_t>(AtJoin), X);
  EXPECT_EQ(CJ.Kind, VarClass::Suspect)
      << printMachineFunction(MF, MM.Info);
  EXPECT_EQ(CJ.Cause, EndangerCause::MaybeStale);
}

//===----------------------------------------------------------------------===//
// Recovery (paper §2.5 / Figure 4)
//===----------------------------------------------------------------------===//

TEST(Recovery, DeadCopyRecoveredFromSource) {
  // `c = a` is dead; at a breakpoint after its elimination the debugger
  // recovers c's expected value from a (they are aliased).
  const char *Src = R"(
    int main() {
      int a = 7;
      int c = a;          // s1: dead (c never used) -> marker, recover=a
      print(a);           // s2
      return a;
    }
  )";
  OptOptions O = OptOptions::none();
  O.DCE = true;
  auto [IR, MM] = compileOrAbort(Src, O);
  Debugger Dbg(MM);
  FuncId Main = MM.Info->findFunc("main");
  ASSERT_TRUE(Dbg.setBreakpointAtStmt(Main, 2)); // print(a)
  ASSERT_EQ(Dbg.run(), StopReason::Breakpoint);
  auto Rep = Dbg.queryVariable("c");
  ASSERT_TRUE(Rep.has_value());
  // Recovery kills the dead reach and provides residence (paper: "the
  // dead reach of V is killed by E"); c displays its expected value.
  EXPECT_EQ(Rep->Class.Kind, VarClass::Current);
  EXPECT_TRUE(Rep->Class.Recoverable);
  EXPECT_TRUE(Rep->HasValue);
  EXPECT_EQ(Rep->IntValue, 7); // Expected value reconstructed.
}

TEST(Recovery, ConstantRecovery) {
  const char *Src = R"(
    int main() {
      int flag = 123;     // s0: dead -> marker, recover=123
      print(9);           // s1
      return 0;
    }
  )";
  OptOptions O = OptOptions::none();
  O.DCE = true;
  auto [IR, MM] = compileOrAbort(Src, O);
  Debugger Dbg(MM);
  FuncId Main = MM.Info->findFunc("main");
  ASSERT_TRUE(Dbg.setBreakpointAtStmt(Main, 1));
  ASSERT_EQ(Dbg.run(), StopReason::Breakpoint);
  auto Rep = Dbg.queryVariable("flag");
  ASSERT_TRUE(Rep.has_value());
  EXPECT_TRUE(Rep->Class.Recoverable);
  EXPECT_TRUE(Rep->HasValue);
  EXPECT_EQ(Rep->IntValue, 123);
}

TEST(Recovery, SelfCopyDoesNotLaunderStaleValue) {
  // `v = v` is dead and gets a marker whose "recovery" source is v
  // itself; an earlier eliminated assignment made v stale.  The
  // classifier must not report v current via the self-alias (regression:
  // found by the randomized never-misleads property).
  const char *Src = R"(
    int main() {
      int v = 0;
      int guard = 1;
      if (guard) {
        for (int i = 0; i < 3; i = i + 1) {
          v = -4;          // eliminated: v only self-assigned after
        }
      }
      v = v;               // self-copy, dead
      print(guard);        // breakpoint: v stale, must not show 0 silently
      return 0;
    }
  )";
  OptOptions Opts = OptOptions::all();
  Opts.LoopPeel = false;
  Opts.LoopUnroll = false;
  auto [IR, MM] = compileOrAbort(Src, Opts, {.PromoteVars = false});
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId V = findVar(MM, "v", "main");
  ASSERT_NE(V, InvalidVar);
  // Find the print statement's breakpoint.
  StmtId PrintStmt = 7;
  if (PrintStmt >= MF.StmtAddr.size() || MF.StmtAddr[PrintStmt] < 0)
    GTEST_SKIP() << "statement map shifted";
  Classification CC =
      C.classify(static_cast<std::uint32_t>(MF.StmtAddr[PrintStmt]), V);
  // Whatever the classification, it must not be an unwarned
  // current-with-recovery claiming the stale register value.
  if (CC.Kind == VarClass::Current && CC.Recoverable) {
    EXPECT_NE(CC.Recovery.SrcVar, V)
        << "self-referential recovery accepted";
  }
}

//===----------------------------------------------------------------------===//
// Residence / nonresidency (Figure 5(b) mechanics)
//===----------------------------------------------------------------------===//

TEST(Residence, NonresidentAfterRegisterReuse) {
  // Force register pressure so registers get reused; early variables
  // become nonresident at late breakpoints.
  std::string Src = "int main() {\n  int first = 77;\n  int acc = first;\n";
  for (int I = 0; I < 30; ++I)
    Src += "  int t" + std::to_string(I) + " = acc + " + std::to_string(I) +
           "; acc = t" + std::to_string(I) + " * 2 - acc;\n";
  Src += "  print(acc);\n  return 0;\n}\n";
  auto [IR, MM] = compileOrAbort(Src, OptOptions::none());
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId First = findVar(MM, "first", "main");
  ASSERT_NE(First, InvalidVar);
  // At the final print statement, `first` is long dead; with promotion
  // and pressure its register was reused.
  std::int32_t LastStmt = -1;
  for (std::size_t S = 0; S < MF.StmtAddr.size(); ++S)
    if (MF.StmtAddr[S] >= 0)
      LastStmt = MF.StmtAddr[S];
  ASSERT_GE(LastStmt, 0);
  Classification CF =
      C.classify(static_cast<std::uint32_t>(LastStmt), First);
  EXPECT_EQ(CF.Kind, VarClass::Nonresident);
}

TEST(Residence, MemoryHomedAlwaysResident) {
  const char *Src = R"(
    int main() {
      int x = 5;
      int* p = &x;        // x is address-taken: memory-homed
      *p = 6;
      print(x);
      return 0;
    }
  )";
  auto [IR, MM] = compileOrAbort(Src, OptOptions::none());
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = findVar(MM, "x", "main");
  for (std::size_t S = 1; S < MF.StmtAddr.size(); ++S) {
    if (MF.StmtAddr[S] < 0)
      continue;
    Classification CC =
        C.classify(static_cast<std::uint32_t>(MF.StmtAddr[S]), X);
    EXPECT_NE(CC.Kind, VarClass::Nonresident) << "stmt " << S;
  }
}

TEST(Residence, UninitializedDetected) {
  const char *Src = R"(
    int main() {
      int ready;          // s0: declared, never assigned before s1
      int a = 1;          // s1
      ready = a + 1;      // s2
      print(ready);       // s3
      return 0;
    }
  )";
  auto [IR, MM] = compileOrAbort(Src, OptOptions::none());
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId Ready = findVar(MM, "ready", "main");
  Classification C1 =
      C.classify(static_cast<std::uint32_t>(MF.StmtAddr[1]), Ready);
  EXPECT_EQ(C1.Kind, VarClass::Uninitialized);
  Classification C3 =
      C.classify(static_cast<std::uint32_t>(MF.StmtAddr[3]), Ready);
  EXPECT_NE(C3.Kind, VarClass::Uninitialized);
}

//===----------------------------------------------------------------------===//
// Debugger session behavior
//===----------------------------------------------------------------------===//

TEST(Debugger, CurrentVariablesShownWithoutWarnings) {
  const char *Src = R"(
    int main() {
      int a = 3;
      int b = a * 7;
      print(b);          // s2
      return 0;
    }
  )";
  auto [IR, MM] = compileOrAbort(Src, OptOptions::all());
  Debugger Dbg(MM);
  ASSERT_TRUE(Dbg.setBreakpointAtStmt(MM.Info->findFunc("main"), 2));
  ASSERT_EQ(Dbg.run(), StopReason::Breakpoint);
  auto B = Dbg.queryVariable("b");
  ASSERT_TRUE(B.has_value());
  if (B->Class.Kind == VarClass::Current) {
    EXPECT_TRUE(warningText(B->Class, "b").empty());
    EXPECT_TRUE(B->HasValue);
    EXPECT_EQ(B->IntValue, 21);
  }
}

TEST(Debugger, ScopeReportCoversVisibleLocals) {
  const char *Src = R"(
    int main() {
      int a = 1;
      {
        int b = 2;
        print(a + b);    // s2: a and b in scope
      }
      print(a);          // s3: only a
      return 0;
    }
  )";
  auto [IR, MM] = compileOrAbort(Src, OptOptions::none());
  Debugger Dbg(MM);
  FuncId Main = MM.Info->findFunc("main");
  ASSERT_TRUE(Dbg.setBreakpointAtStmt(Main, 2));
  ASSERT_EQ(Dbg.run(), StopReason::Breakpoint);
  auto Scope = Dbg.reportScope();
  EXPECT_EQ(Scope.size(), 2u);
}

TEST(Debugger, GlobalsAlwaysReadable) {
  const char *Src = R"(
    int counter = 5;
    int main() {
      counter = counter + 1;
      print(counter);    // s1
      return 0;
    }
  )";
  auto [IR, MM] = compileOrAbort(Src, OptOptions::all());
  Debugger Dbg(MM);
  ASSERT_TRUE(Dbg.setBreakpointAtStmt(MM.Info->findFunc("main"), 1));
  ASSERT_EQ(Dbg.run(), StopReason::Breakpoint);
  auto G = Dbg.queryVariable("counter");
  ASSERT_TRUE(G.has_value());
  EXPECT_TRUE(G->HasValue);
  EXPECT_EQ(G->IntValue, 6);
}

TEST(Debugger, ExitedProgramAnswersNothingUntilTheNextRun) {
  const char *Src = R"(
    int main() {
      int a = 3;
      print(a);          // s1
      return a;
    }
  )";
  auto [IR, MM] = compileOrAbort(Src, OptOptions::all());
  Debugger Dbg(MM);
  ASSERT_TRUE(Dbg.setBreakpointAtStmt(MM.Info->findFunc("main"), 1));
  ASSERT_EQ(Dbg.run(), StopReason::Breakpoint);
  EXPECT_FALSE(Dbg.exited());
  EXPECT_TRUE(Dbg.queryVariable("a").has_value());
  ASSERT_EQ(Dbg.resume(), StopReason::Exited);
  EXPECT_TRUE(Dbg.started());
  EXPECT_TRUE(Dbg.exited());
  EXPECT_FALSE(Dbg.currentStmt().has_value());
  EXPECT_FALSE(Dbg.queryVariable("a").has_value());
  EXPECT_FALSE(Dbg.explainVariable("a").has_value());
  EXPECT_TRUE(Dbg.reportScope().empty());
  // A new run stops again and answers again.
  ASSERT_EQ(Dbg.run(), StopReason::Breakpoint);
  EXPECT_FALSE(Dbg.exited());
  EXPECT_EQ(Dbg.currentStmt(), std::optional<StmtId>(1));
  EXPECT_EQ(Dbg.reportScope().size(), 1u);
}

TEST(Debugger, TrappedOrOutOfFuelProgramAnswersNothingUntilTheNextRun) {
  // A trap and a spent fuel budget stop the program inside a statement,
  // outside the statement-boundary model: nothing is inspected there.
  const char *Src = R"(
    int down(int n) {
      int r = down(n + 1);
      return r;
    }
    int main() {
      return down(0);
    }
  )";
  auto [IR, MM] = compileOrAbort(Src, OptOptions::all());
  for (std::uint64_t Fuel : {std::uint64_t(50'000'000), std::uint64_t(2000)}) {
    SCOPED_TRACE("fuel " + std::to_string(Fuel));
    const bool Trap = Fuel > 2000;
    Debugger Dbg(MM, Fuel);
    ASSERT_EQ(Dbg.run(),
              Trap ? StopReason::Trapped : StopReason::StepLimit);
    EXPECT_TRUE(Dbg.started());
    EXPECT_FALSE(Dbg.exited());
    EXPECT_EQ(Dbg.trapped(), Trap);
    EXPECT_EQ(Dbg.outOfFuel(), !Trap);
    EXPECT_FALSE(Dbg.currentStmt().has_value());
    EXPECT_FALSE(Dbg.queryVariable("n").has_value());
    EXPECT_FALSE(Dbg.explainVariable("n").has_value());
    EXPECT_TRUE(Dbg.reportScope().empty());
    // A run paused at main's first statement answers again.
    ASSERT_EQ(Dbg.startPaused(), StopReason::Breakpoint);
    EXPECT_FALSE(Dbg.trapped() || Dbg.outOfFuel());
    EXPECT_EQ(Dbg.currentStmt(), std::optional<StmtId>(0));
  }
}

//===----------------------------------------------------------------------===//
// Scope-report memo: a report served from the memo equals a fresh one
//===----------------------------------------------------------------------===//

namespace {

std::uint64_t doubleBits(double D) {
  std::uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

/// The first field in which two reports differ, or null when they agree
/// (doubles compared by their bits), the name and warning each renders
/// with \p Info included.
const char *firstDifference(const ProgramInfo &Info, const VarReport &A,
                            const VarReport &B) {
  const Classification &CA = A.Class, &CB = B.Class;
  const MRecovery &RA = CA.Recovery, &RB = CB.Recovery;
  const std::string &NameA = Info.var(A.Var).Name;
  const std::string &NameB = Info.var(B.Var).Name;
  if (A.Var != B.Var)
    return "Var";
  if (NameA != NameB)
    return "Name";
  if (CA.Kind != CB.Kind)
    return "Class.Kind";
  if (CA.Cause != CB.Cause)
    return "Class.Cause";
  if (CA.CulpritStmt != CB.CulpritStmt)
    return "Class.CulpritStmt";
  if (CA.Recoverable != CB.Recoverable)
    return "Class.Recoverable";
  if (CA.Degraded != CB.Degraded)
    return "Class.Degraded";
  if (RA.K != RB.K || RA.Imm != RB.Imm ||
      doubleBits(RA.FImm) != doubleBits(RB.FImm) || RA.R != RB.R ||
      RA.Frame != RB.Frame || RA.Scale != RB.Scale || RA.IsIV != RB.IsIV ||
      RA.SrcVreg != RB.SrcVreg || RA.SrcVar != RB.SrcVar)
    return "Class.Recovery";
  if (A.HasValue != B.HasValue)
    return "HasValue";
  if (A.IsDouble != B.IsDouble)
    return "IsDouble";
  if (A.IntValue != B.IntValue)
    return "IntValue";
  if (doubleBits(A.DoubleValue) != doubleBits(B.DoubleValue))
    return "DoubleValue";
  if (warningText(CA, NameA) != warningText(CB, NameB))
    return "Warning";
  return nullptr;
}

/// What a memo check saw: stops, scope entries compared with a fresh
/// query, entries skipped because their name resolves to another
/// variable, and mismatches.
struct MemoTally {
  std::uint64_t Stops = 0, Compared = 0, Skipped = 0, Mismatches = 0;
};

/// Compares \p Got, one scope entry at the current stop of \p D, with a
/// fresh queryVariable() of its name.
void compareWithFresh(const Debugger &D, const VarReport &Got,
                      const std::string &Label, MemoTally &T) {
  const ProgramInfo &Info = *D.module().Info;
  const std::string &Name = Info.var(Got.Var).Name;
  std::optional<VarReport> Fresh = D.queryVariable(Name);
  // queryVariable finds the function's first local of that name, or a
  // global: a shadowed or shadowing scope variable resolves elsewhere.
  if (!Fresh || Fresh->Var != Got.Var) {
    ++T.Skipped;
    return;
  }
  ++T.Compared;
  if (const char *Field = firstDifference(Info, Got, *Fresh))
    if (++T.Mismatches <= 10)
      ADD_FAILURE() << Label << ", stop " << T.Stops << ", variable "
                    << Name << ": " << Field
                    << " differs from a fresh query";
}

/// Debugs \p MM to exit with a breakpoint at every statement and checks
/// every scope report against fresh queries.
void checkEveryStop(const MachineModule &MM, const std::string &Label,
                    MemoTally &T) {
  Debugger D(MM);
  D.breakEverywhere();
  StopReason R = D.run();
  for (; R == StopReason::Breakpoint; R = D.resume()) {
    ++T.Stops;
    for (const VarReport &Got : D.reportScope())
      compareWithFresh(D, Got, Label, T);
  }
  EXPECT_EQ(R, StopReason::Exited) << Label;
}

std::uint64_t statValue(const char *Name) {
  return Stats::counter(Name).value();
}

/// Checks every stop of \p Sources at O0, O2 and O2ssa, and that the
/// memo served stops.
void checkMemoAgainstFresh(
    const std::vector<std::pair<std::string, std::string>> &Sources) {
  const std::uint64_t Reports0 = statValue("debugger.scope.reports");
  const std::uint64_t Hits0 = statValue("debugger.scope.memo_hits");
  MemoTally T;
  for (const auto &[Name, Src] : Sources)
    for (const char *Level : {"O0", "O2", "O2ssa"}) {
      const LevelSpec *L = findLevel(Level);
      ASSERT_NE(L, nullptr);
      auto [IR, MM] = compileOrAbort(Src, L->Opts, {.PromoteVars = L->Promote});
      checkEveryStop(MM, Name + " at " + Level, T);
    }
  // Each session adds its counts when it ends.
  const std::uint64_t Reports = statValue("debugger.scope.reports") - Reports0;
  const std::uint64_t Hits = statValue("debugger.scope.memo_hits") - Hits0;
  EXPECT_EQ(T.Mismatches, 0u);
  EXPECT_EQ(Reports, T.Stops);
  EXPECT_GT(Hits, 0u);
  EXPECT_LT(Hits, Reports);
  EXPECT_GT(T.Compared, 0u);
  EXPECT_LT(T.Skipped, T.Compared);
  std::printf("%llu stops, %llu served by the memo; %llu scope entries "
              "compared, %llu skipped (name resolves to another variable)\n",
              static_cast<unsigned long long>(T.Stops),
              static_cast<unsigned long long>(Hits),
              static_cast<unsigned long long>(T.Compared),
              static_cast<unsigned long long>(T.Skipped));
}

class ScopeMemoEval : public ::testing::TestWithParam<unsigned> {};
class ScopeMemoGenerated : public ::testing::TestWithParam<bool> {};

} // namespace

TEST_P(ScopeMemoEval, EveryStopMatchesAFreshQuery) {
  const BenchProgram &P = benchmarkPrograms()[GetParam()];
  checkMemoAgainstFresh({{P.Name, P.Source}});
}

INSTANTIATE_TEST_SUITE_P(
    Programs, ScopeMemoEval,
    ::testing::Range(0u, static_cast<unsigned>(benchmarkPrograms().size())),
    [](const ::testing::TestParamInfo<unsigned> &I) {
      return std::string(benchmarkPrograms()[I.param].Name);
    });

TEST_P(ScopeMemoGenerated, EveryStopOfSeeds1To100MatchesAFreshQuery) {
  GenOptions G;
  G.Alias = GetParam();
  std::vector<std::pair<std::string, std::string>> Sources;
  for (std::uint32_t Seed = 1; Seed <= 100; ++Seed)
    Sources.emplace_back("seed " + std::to_string(Seed),
                         generateProgram(Seed, G));
  checkMemoAgainstFresh(Sources);
}

INSTANTIATE_TEST_SUITE_P(Grammar, ScopeMemoGenerated, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return std::string(I.param ? "Alias" : "Default");
                         });

// degradeAllVariables() between two stops at one address: the next
// report there is degraded although the memo served the address before.
TEST(ScopeMemo, DegradeBetweenStopsAtOneAddressDegradesTheNextReport) {
  const char *Src = R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 20; i = i + 1) {
        int t = i * 3;
        s = s + t;
      }
      print(s);
      return 0;
    }
  )";
  auto [IR, MM] = compileOrAbort(Src, OptOptions::all());
  Debugger D(MM);
  D.breakEverywhere();
  std::map<std::pair<FuncId, std::uint32_t>, unsigned> Visits;
  std::optional<std::pair<FuncId, std::uint32_t>> Target;
  unsigned TargetStopsAfter = 0;
  MemoTally T;
  StopReason R = D.run();
  for (; R == StopReason::Breakpoint; R = D.resume()) {
    ++T.Stops;
    const std::pair<FuncId, std::uint32_t> At(D.currentFunction(),
                                              D.machine().pc().Local);
    const std::vector<VarReport> Scope = D.reportScope();
    for (const VarReport &V : Scope) {
      EXPECT_EQ(V.Class.Degraded, Target.has_value()) << "variable " << V.Var;
      compareWithFresh(D, V, "loop", T);
    }
    if (Target) {
      TargetStopsAfter += At == *Target;
      continue;
    }
    // The third stop at an address is the memo's first hit there.
    if (++Visits[At] == 3 && !Scope.empty()) {
      D.degradeAllVariables();
      Target = At;
    }
  }
  EXPECT_EQ(R, StopReason::Exited);
  ASSERT_TRUE(Target.has_value());
  EXPECT_GE(TargetStopsAfter, 2u);
  EXPECT_EQ(T.Mismatches, 0u);
}

// classifyAll computes the state at an address once for every variable
// it is given: each of its verdicts must be the one classify() reaches
// for that variable alone, at every address including the past-the-end
// one, on intact and on degraded classifiers.
TEST(ClassifyAll, MatchesClassifyAtEveryAddress) {
  std::uint64_t Points = 0, Mismatches = 0;
  for (const auto &[Name, Src] : digestCorpus())
    for (const char *Level : {"O2", "O2ssa", "O2-frame"}) {
      const LevelSpec *L = findLevel(Level);
      ASSERT_NE(L, nullptr);
      auto [IR, MM] = compileOrAbort(Src, L->Opts, {.PromoteVars = L->Promote});
      const ProgramInfo &Info = *MM.Info;
      for (const MachineFunction &MF : MM.Funcs) {
        std::vector<VarId> Vars = Info.func(MF.Id).Locals;
        Vars.insert(Vars.end(), Info.Globals.begin(), Info.Globals.end());
        Classifier C(MF, Info);
        std::vector<Classification> All;
        for (bool Degraded : {false, true}) {
          if (Degraded)
            C.degradeAllVariables();
          for (std::uint32_t A = 0; A <= MF.numInstrs(); ++A) {
            C.classifyAll(A, Vars, All);
            ASSERT_EQ(All.size(), Vars.size());
            for (std::size_t I = 0; I < Vars.size(); ++I) {
              ++Points;
              const VarReport Got{.Var = Vars[I], .Class = All[I]};
              const VarReport Want{.Var = Vars[I],
                                   .Class = C.classify(A, Vars[I])};
              if (const char *Field = firstDifference(Info, Got, Want))
                if (++Mismatches <= 10)
                  ADD_FAILURE() << Name << " at " << Level << ", " << MF.Name
                                << "+" << A << (Degraded ? " (degraded)" : "")
                                << ", variable " << Info.var(Vars[I]).Name
                                << ": " << Field << " differs";
            }
          }
        }
      }
    }
  EXPECT_EQ(Mismatches, 0u);
  EXPECT_GT(Points, 0u);
  std::printf("%llu (address, variable) points compared\n",
              static_cast<unsigned long long>(Points));
}

//===----------------------------------------------------------------------===//
// Soundness property: "never misleads" (Figure 1)
//===----------------------------------------------------------------------===//

namespace {

/// Runs the program twice — unoptimized (oracle of source-level expected
/// values) and fully optimized — stopping at every statement of every
/// function.  Both runs must stop in the same (function, statement)
/// sequence; at each stop, any variable the optimized debugger shows
/// WITHOUT a warning (Current) or as recovered must match the oracle's
/// value.
void checkNeverMisleads(std::string_view Src, const OptOptions &Opts) {
  auto [IRO, MMO] = compileOrAbort(Src, OptOptions::none(),
                                   {.PromoteVars = false, .Schedule = false});
  // Scheduling can interleave the *stop order* of adjacent statements;
  // endangerment from instruction scheduling is the subject of the
  // authors' PLDI'93 paper, explicitly out of scope here (paper §1.3),
  // so the pairing harness runs unscheduled code.
  auto [IR2, MM2] = compileOrAbort(Src, Opts, {.Schedule = false});

  Debugger Oracle(MMO), Opt(MM2);
  Oracle.breakEverywhere();
  Opt.breakEverywhere();

  StopReason RO = Oracle.run();
  StopReason R2 = Opt.run();
  unsigned Steps = 0;
  while (RO == StopReason::Breakpoint && R2 == StopReason::Breakpoint &&
         Steps < 3000) {
    ++Steps;
    auto SO = Oracle.currentStmt();
    auto S2 = Opt.currentStmt();
    ASSERT_TRUE(SO.has_value());
    ASSERT_TRUE(S2.has_value());
    // Statements whose code vanished entirely from the optimized build
    // (folded branches, merged blocks) stop only the oracle: skip them.
    // This is the paper's *code location* problem, out of scope for the
    // data-value analyses ([26], paper §1).
    if (Oracle.currentFunction() != Opt.currentFunction() || *SO != *S2) {
      const MachineFunction &OptF =
          Opt.module().Funcs[Oracle.currentFunction()];
      bool Vanished = *SO >= OptF.StmtAddr.size() ||
                      OptF.StmtAddr[*SO] < 0;
      ASSERT_TRUE(Vanished) << "stop " << Steps << " diverged: oracle s"
                            << *SO << " vs optimized s" << *S2;
      RO = Oracle.resume();
      continue;
    }

    auto ScopeO = Oracle.reportScope();
    auto Scope2 = Opt.reportScope();
    ASSERT_EQ(ScopeO.size(), Scope2.size());
    for (std::size_t I = 0; I < Scope2.size(); ++I) {
      const VarReport &VO = ScopeO[I];
      const VarReport &V2 = Scope2[I];
      ASSERT_EQ(VO.Var, V2.Var);
      if (VO.Class.Kind == VarClass::Uninitialized ||
          V2.Class.Kind == VarClass::Uninitialized)
        continue;
      bool ShownAsTruth = V2.Class.Kind == VarClass::Current ||
                          (V2.Class.Kind == VarClass::Noncurrent &&
                           V2.Class.Recoverable);
      if (!ShownAsTruth || !V2.HasValue || !VO.HasValue)
        continue;
      if (V2.IsDouble)
        EXPECT_DOUBLE_EQ(V2.DoubleValue, VO.DoubleValue)
            << "stmt " << *S2 << " var " << MM2.Info->var(V2.Var).Name
            << " stop " << Steps;
      else
        EXPECT_EQ(V2.IntValue, VO.IntValue)
            << "stmt " << *S2 << " var " << MM2.Info->var(V2.Var).Name
            << " stop " << Steps;
    }

    RO = Oracle.resume();
    R2 = Opt.resume();
  }
  EXPECT_EQ(RO, R2);
  if (RO == StopReason::Exited) {
    EXPECT_EQ(Oracle.machine().exitValue(), Opt.machine().exitValue());
  }
  EXPECT_EQ(Oracle.machine().outputText(), Opt.machine().outputText());
}

/// Pipeline without loop peeling (peeling duplicates statements, so the
/// syntactic-breakpoint hit sequences of the two builds cannot be paired
/// step by step).
OptOptions noPeel() {
  OptOptions O = OptOptions::all();
  O.LoopPeel = false;
  O.LoopUnroll = false; // Replication duplicates statements, too.
  return O;
}

} // namespace

TEST(NeverMisleads, StraightLine) {
  checkNeverMisleads(R"(
    int main() {
      int a = 2; int b = 3;
      int c = a + b;
      int d = a + b;
      int e = c * d;
      print(e);
      return e;
    }
  )",
                     noPeel());
}

TEST(NeverMisleads, Figure2Program) {
  checkNeverMisleads(R"(
    int main() {
      int u = 7; int v = 3; int y = 2; int z = 4;
      int x = u - v;
      if (u > v) { x = y + z; } else { u = u + 1; }
      x = y + z;
      print(x); print(u);
      return 0;
    }
  )",
                     noPeel());
}

TEST(NeverMisleads, Figure3Program) {
  checkNeverMisleads(R"(
    int main() {
      int u = 5; int v = 2; int y = 3; int z = 4;
      int x = y + z;
      if (u > v) { x = u - v; print(x); } else { print(x); }
      print(u);
      return 0;
    }
  )",
                     noPeel());
}

TEST(NeverMisleads, LoopsAndCalls) {
  checkNeverMisleads(R"(
    int triple(int k) { return k * 3; }
    int main() {
      int s = 0;
      for (int i = 0; i < 6; i = i + 1) {
        int t = triple(i);
        s = s + t;
      }
      print(s);
      return s;
    }
  )",
                     noPeel());
}

TEST(NeverMisleads, DeadAndPartiallyDead) {
  checkNeverMisleads(R"(
    int main() {
      int a = 10;
      int dead1 = a * 2;
      int pd = a + 5;
      if (a > 3) {
        pd = 1;
      } else {
        print(pd);
      }
      int dead2 = pd;
      print(a);
      return 0;
    }
  )",
                     noPeel());
}

//===----------------------------------------------------------------------===//
// Randomized never-misleads property
//===----------------------------------------------------------------------===//

namespace {

class SoundnessGenerator {
public:
  explicit SoundnessGenerator(unsigned Seed) : Rng(Seed) {}

  std::string generate() {
    Src.clear();
    Src += "int main() {\n";
    for (int V = 0; V < 5; ++V)
      Src += "  int v" + std::to_string(V) + " = " +
             std::to_string(static_cast<int>(Rng() % 20) - 10) + ";\n";
    genStmts(2, 6);
    Src += "  print(v0);\n  return 0;\n}\n";
    return Src;
  }

private:
  std::string var() { return "v" + std::to_string(Rng() % 5); }

  std::string expr(int Depth) {
    if (Depth <= 0 || Rng() % 3 == 0) {
      if (Rng() % 2)
        return var();
      return std::to_string(static_cast<int>(Rng() % 9) - 4);
    }
    static const char *Ops[] = {"+", "-", "*", "<", ">"};
    return "(" + expr(Depth - 1) + " " + Ops[Rng() % 5] + " " +
           expr(Depth - 1) + ")";
  }

  void genStmts(int Depth, int Count) {
    for (int S = 0; S < Count; ++S) {
      switch (Rng() % 4) {
      case 0:
      case 1:
        Src += "  " + var() + " = " + expr(2) + ";\n";
        break;
      case 2:
        if (Depth > 0) {
          Src += "  if (" + expr(1) + ") {\n";
          genStmts(Depth - 1, 1 + Rng() % 3);
          Src += "  } else {\n";
          genStmts(Depth - 1, 1 + Rng() % 3);
          Src += "  }\n";
        } else {
          Src += "  " + var() + " = " + expr(1) + ";\n";
        }
        break;
      case 3:
        if (Depth > 0) {
          std::string I = "i" + std::to_string(LoopId++);
          Src += "  for (int " + I + " = 0; " + I + " < " +
                 std::to_string(1 + Rng() % 4) + "; " + I + " = " + I +
                 " + 1) {\n";
          genStmts(Depth - 1, 1 + Rng() % 2);
          Src += "  }\n";
        } else {
          Src += "  print(" + var() + ");\n";
        }
        break;
      }
    }
  }

  std::mt19937 Rng;
  std::string Src;
  int LoopId = 0;
};

class NeverMisleadsRandom : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(NeverMisleadsRandom, OptimizedDebuggerNeverLies) {
  SoundnessGenerator Gen(GetParam() + 7777);
  std::string Src = Gen.generate();
  SCOPED_TRACE(Src);
  checkNeverMisleads(Src, noPeel());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeverMisleadsRandom,
                         ::testing::Range(0u, 60u));
