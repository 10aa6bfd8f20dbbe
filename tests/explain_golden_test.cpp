//===- tests/explain_golden_test.cpp ---------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden tests for classification explain mode: the provenance text for
/// the paper's worked examples — Figure 2 (hoisting → noncurrent and
/// suspect), Figure 3 (dead-code elimination / sinking), the §2.5
/// recovery example — plus the degraded fail-safe path, is checked in
/// under tests/golden/explain/ and diffed verbatim.  Explain output is a
/// user-facing contract: any wording or fact-ordering change shows up
/// here as a diff and must be deliberate.
///
/// Two scenarios additionally drive the installed sldbc binary
/// (--debug --cmd "explain V", --degrade-all) so the CLI surface is held
/// to the same golden.  The ReportGolden tests pin the printed scope and
/// `p` reports of sldbc sessions and the output of
/// examples/endangered_tour, whose warnings are the same text.
///
/// Regenerate deliberately with SLDB_UPDATE_GOLDENS=1 (writes the
/// current output into tests/golden/explain/ and passes).
///
//===----------------------------------------------------------------------===//

#include "TestCompile.h"
#include "core/Debugger.h"
#include "eval/Levels.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace sldb;

namespace {

#ifndef SLDB_GOLDEN_DIR
#error "SLDB_GOLDEN_DIR must point at tests/golden"
#endif

std::string goldenPath(const std::string &Name) {
  return std::string(SLDB_GOLDEN_DIR) + "/explain/" + Name;
}

bool updating() {
  const char *V = std::getenv("SLDB_UPDATE_GOLDENS");
  return V && *V && std::string(V) != "0";
}

/// Diffs \p Got against the named golden (or rewrites the golden under
/// SLDB_UPDATE_GOLDENS=1).
void checkGolden(const std::string &Name, const std::string &Got) {
  if (updating()) {
    std::ofstream Out(goldenPath(Name), std::ios::binary);
    ASSERT_TRUE(Out) << "cannot write " << goldenPath(Name);
    Out << Got;
    return;
  }
  std::ifstream In(goldenPath(Name));
  ASSERT_TRUE(In) << "missing golden file " << goldenPath(Name)
                  << " (regenerate with SLDB_UPDATE_GOLDENS=1)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Got, Buf.str())
      << "explain output for '" << Name
      << "' changed; if intended, regenerate with SLDB_UPDATE_GOLDENS=1";
}

VarId findVar(const MachineModule &MM, const std::string &Name) {
  FuncId F = MM.Info->findFunc("main");
  for (VarId V : MM.Info->func(F).Locals)
    if (MM.Info->var(V).Name == Name)
      return V;
  return InvalidVar;
}

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

// The paper's Figure 2 / Figure 3 programs, as in tests/core_test.cpp.
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

const char *Fig4 = R"(
  int main() {
    int a = 7;
    int c = a;          // s1: dead (c never used) -> marker, recover=a
    print(a);           // s2
    return a;
  }
)";

OptOptions preOnly() {
  OptOptions O = OptOptions::none();
  O.PRE = true;
  return O;
}
OptOptions pdeOnly() {
  OptOptions O = OptOptions::none();
  O.PDE = true;
  return O;
}
OptOptions dceOnly() {
  OptOptions O = OptOptions::none();
  O.DCE = true;
  return O;
}

//===----------------------------------------------------------------------===//
// Figure 2: hoisting (PRE)
//===----------------------------------------------------------------------===//

TEST(ExplainGolden, Fig2SuspectAtJoin) {
  auto [IR, MM] = compileOrAbort(Fig2, preOnly());
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = findVar(MM, "x");
  ASSERT_NE(X, InvalidVar);
  ASSERT_GE(MF.StmtAddr.size(), 10u);
  ASSERT_GE(MF.StmtAddr[8], 0); // Bkpt2: the avail-marker statement.
  Explanation E =
      C.explain(static_cast<std::uint32_t>(MF.StmtAddr[8]), X);
  ASSERT_EQ(E.Result.Kind, VarClass::Suspect); // Paper's verdict first.
  checkGolden("fig2_suspect.txt", C.renderExplainText(E));
  checkGolden("fig2_suspect.json", C.renderExplainJson(E) + "\n");
}

TEST(ExplainGolden, Fig2NoncurrentAfterHoistedInstance) {
  auto [IR, MM] = compileOrAbort(Fig2, preOnly());
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = findVar(MM, "x");
  std::int64_t HoistAddr = findAddr(MF, [](const MInstr &I) {
    return I.IsHoisted && I.DestVar != InvalidVar;
  });
  ASSERT_GE(HoistAddr, 0) << printMachineFunction(MF, MM.Info);
  Explanation E =
      C.explain(static_cast<std::uint32_t>(HoistAddr + 1), X);
  ASSERT_EQ(E.Result.Kind, VarClass::Noncurrent);
  checkGolden("fig2_noncurrent.txt", C.renderExplainText(E));
}

//===----------------------------------------------------------------------===//
// Figure 3: dead-code elimination / sinking (PDE)
//===----------------------------------------------------------------------===//

TEST(ExplainGolden, Fig3NoncurrentBetweenMarkerAndSunkCopy) {
  auto [IR, MM] = compileOrAbort(Fig3, pdeOnly(), {.PromoteVars = false});
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId X = findVar(MM, "x");
  ASSERT_NE(X, InvalidVar);
  ASSERT_GE(MF.StmtAddr.size(), 6u);
  ASSERT_GE(MF.StmtAddr[5], 0); // The `if` statement.
  Explanation E =
      C.explain(static_cast<std::uint32_t>(MF.StmtAddr[5]), X);
  ASSERT_EQ(E.Result.Kind, VarClass::Noncurrent);
  checkGolden("fig3_noncurrent.txt", C.renderExplainText(E));
}

//===----------------------------------------------------------------------===//
// Recovery (paper §2.5 / Figure 4)
//===----------------------------------------------------------------------===//

TEST(ExplainGolden, Fig4RecoveredDeadCopy) {
  auto [IR, MM] = compileOrAbort(Fig4, dceOnly());
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId Cv = findVar(MM, "c");
  ASSERT_NE(Cv, InvalidVar);
  ASSERT_GE(MF.StmtAddr.size(), 3u);
  ASSERT_GE(MF.StmtAddr[2], 0); // print(a).
  Explanation E =
      C.explain(static_cast<std::uint32_t>(MF.StmtAddr[2]), Cv);
  ASSERT_EQ(E.Result.Kind, VarClass::Current);
  ASSERT_TRUE(E.Result.Recoverable);
  checkGolden("fig4_recovery.txt", C.renderExplainText(E));
  checkGolden("fig4_recovery.json", C.renderExplainJson(E) + "\n");
}

//===----------------------------------------------------------------------===//
// SSA tier: the same breakpoint, different verdicts by level
//===----------------------------------------------------------------------===//

/// Builds \p Src at a named pipeline level (eval/Levels.h), with the
/// level's own pass selection and promotion.
CompiledModule buildAtLevel(std::string_view Src, const char *LevelName) {
  const LevelSpec *L = findLevel(LevelName);
  EXPECT_TRUE(L != nullptr) << LevelName;
  return compileOrAbort(Src, L->Opts, {L->Promote});
}

/// Explains \p Var at statement \p Stmt of main and goldens the text.
Explanation explainAtLevel(std::string_view Src, const char *LevelName,
                           StmtId Stmt, const std::string &Var,
                           const std::string &Golden) {
  auto [IR, MM] = buildAtLevel(Src, LevelName);
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  VarId V = findVar(MM, Var);
  EXPECT_NE(V, InvalidVar);
  EXPECT_GT(MF.StmtAddr.size(), Stmt);
  EXPECT_GE(MF.StmtAddr[Stmt], 0);
  Explanation E =
      C.explain(static_cast<std::uint32_t>(MF.StmtAddr[Stmt]), V);
  checkGolden(Golden, C.renderExplainText(E));
  return E;
}

// Figure 2's x at the avail-marker statement, walked up the SSA tier.
// The SSA bracket alone round-trips (current); the full scalar set on
// top of it folds x's final value into a recovery constant carried
// through the bracket's phi merges (current, recoverable).  The verdict
// text for the *same* source point differs by level — the transcripts
// are the contract that each level's answer stays put.
TEST(ExplainGolden, SsaTierVerdictShiftsOnFig2) {
  Explanation Plain =
      explainAtLevel(Fig2, "ssa", 8, "x", "ssa_level_fig2_ssa.txt");
  EXPECT_EQ(Plain.Result.Kind, VarClass::Current);
  EXPECT_FALSE(Plain.Result.Recoverable);

  Explanation Rec =
      explainAtLevel(Fig2, "O2nl-ssa", 8, "x", "ssa_level_fig2_o2nlssa.txt");
  EXPECT_EQ(Rec.Result.Kind, VarClass::Current);
  EXPECT_TRUE(Rec.Result.Recoverable);
}

// A redundant recomputation after a two-arm join: both arms assign x,
// the join recomputes one arm's expression.  Under the single-pass SSA
// levels x stays a current frame-resident variable; under O2nl-ssa the
// whole chain constant-folds through the phi, x never materializes, and
// the hoist-key attribution in the transcript names the folded
// phi-merged key ('x = copy 7') rather than the source expression.
const char *PhiJoin = R"(
  int main() {
    int a = 3; int b = 4; int x = 0;
    if (a < b) {
      x = a + b;
    } else {
      x = a - b;
    }
    x = a + b;
    print(x);
    return 0;
  }
)";

TEST(ExplainGolden, SsaTierPhiMergedHoistKeyAttribution) {
  Explanation Sparse =
      explainAtLevel(PhiJoin, "sparse", 7, "x", "ssa_level_phijoin_sparse.txt");
  EXPECT_EQ(Sparse.Result.Kind, VarClass::Current);

  Explanation Top = explainAtLevel(PhiJoin, "O2nl-ssa", 7, "x",
                                   "ssa_level_phijoin_o2nlssa.txt");
  EXPECT_EQ(Top.Result.Kind, VarClass::Nonresident);
}

//===----------------------------------------------------------------------===//
// Degraded fail-safe path
//===----------------------------------------------------------------------===//

TEST(ExplainGolden, DegradedFailSafe) {
  auto [IR, MM] = compileOrAbort(Fig3, pdeOnly(), {.PromoteVars = false});
  const MachineFunction &MF = *MM.findFunc("main");
  Classifier C(MF, *MM.Info);
  C.degradeAllVariables();
  VarId X = findVar(MM, "x");
  ASSERT_GE(MF.StmtAddr[5], 0);
  Explanation E =
      C.explain(static_cast<std::uint32_t>(MF.StmtAddr[5]), X);
  ASSERT_TRUE(E.Result.Degraded);
  checkGolden("degraded.txt", C.renderExplainText(E));
}

//===----------------------------------------------------------------------===//
// Explain never disagrees with classify (same code path): every
// (breakpoint, variable) point of the scenarios above.
//===----------------------------------------------------------------------===//

TEST(ExplainGolden, ExplainAgreesWithClassifyEverywhere) {
  struct Case {
    const char *Src;
    OptOptions Opts;
    bool Promote;
  } Cases[] = {
      {Fig2, preOnly(), true},
      {Fig3, pdeOnly(), false},
      {Fig4, dceOnly(), true},
      {Fig2, OptOptions::all(), true},
  };
  for (const Case &K : Cases) {
    auto [IR, MM] = compileOrAbort(K.Src, K.Opts, {K.Promote});
    for (const MachineFunction &MF : MM.Funcs) {
      Classifier C(MF, *MM.Info);
      const FuncInfo &FI = MM.Info->func(MF.Id);
      for (StmtId S = 0; S < MF.StmtAddr.size(); ++S) {
        if (MF.StmtAddr[S] < 0)
          continue;
        std::uint32_t Addr = static_cast<std::uint32_t>(MF.StmtAddr[S]);
        for (VarId V : FI.Stmts[S].ScopeVars) {
          Classification Plain = C.classify(Addr, V);
          Explanation E = C.explain(Addr, V);
          EXPECT_EQ(Plain.Kind, E.Result.Kind);
          EXPECT_EQ(Plain.Cause, E.Result.Cause);
          EXPECT_EQ(Plain.Recoverable, E.Result.Recoverable);
          EXPECT_EQ(Plain.Degraded, E.Result.Degraded);
          EXPECT_EQ(Plain.CulpritStmt, E.Result.CulpritStmt);
          EXPECT_FALSE(E.Rule.empty());
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// CLI surface: the same goldens through the sldbc binary.
//===----------------------------------------------------------------------===//

#ifdef SLDB_SLDBC_PATH

std::string runCommand(const std::string &Cmd) {
  std::string Out;
  FILE *P = popen(Cmd.c_str(), "r");
  EXPECT_TRUE(P != nullptr) << Cmd;
  if (!P)
    return Out;
  char Buf[4096];
  std::size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  pclose(P);
  return Out;
}

TEST(ExplainGolden, CliExplainRecovery) {
  std::string Cmd = std::string("'") + SLDB_SLDBC_PATH +
                    "' --debug --cmd 'b main 2' --cmd run "
                    "--cmd 'explain c' --cmd q '" SLDB_INPUT_DIR
                    "/recovery.mc' 2>/dev/null";
  checkGolden("fig4_cli.txt", runCommand(Cmd));
}

TEST(ExplainGolden, CliExplainDegraded) {
  std::string Cmd = std::string("'") + SLDB_SLDBC_PATH +
                    "' --debug --degrade-all --cmd 'b main 2' --cmd run "
                    "--cmd 'explain c' --cmd 'p c' --cmd q '" SLDB_INPUT_DIR
                    "/recovery.mc' 2>/dev/null";
  checkGolden("degraded_cli.txt", runCommand(Cmd));
}

// Scope reports and `p` through the CLI, at stops where each verdict a
// statement stop of the checked-in inputs can show prints its warning:
// uninitialized, suspect (premature and stale), noncurrent (stale),
// nonresident, recovered and current, then the degraded forms.  The
// lftr_overflow session stops three times at one address, so its last
// report is served by the scope memo.
TEST(ReportGolden, CliScopeAndPrint) {
  struct Session {
    const char *Flags;
    const char *Cmds;
    const char *Input;
  };
  const Session Sessions[] = {
      {"-O0", "--cmd 'b main 4' --cmd run --cmd scope --cmd 'p x'",
       "fig2.mc"},
      {"--level=pre", "--cmd 'b main 8' --cmd run --cmd scope --cmd 'p x'",
       "fig2.mc"},
      {"--level=dce",
       "--cmd 'b main 5' --cmd 'b main 8' --cmd run --cmd scope --cmd 'p x' "
       "--cmd c --cmd scope --cmd 'p x'",
       "fig2.mc"},
      {"-O2", "--cmd 'b main 9' --cmd run --cmd scope --cmd 'p x'",
       "fig2.mc"},
      {"-O2", "--cmd 'b main 2' --cmd run --cmd scope --cmd 'p c'",
       "recovery.mc"},
      {"--level=dce",
       "--cmd 'b main 3' --cmd run --cmd scope --cmd c --cmd scope --cmd c "
       "--cmd scope --cmd 'p s'",
       "lftr_overflow.mc"},
      {"--level=dce --degrade-all",
       "--cmd 'b main 4' --cmd 'b main 5' --cmd run --cmd scope --cmd c "
       "--cmd scope --cmd 'p x'",
       "fig2.mc"},
      {"-O2 --degrade-all",
       "--cmd 'b main 9' --cmd run --cmd scope --cmd 'p x'", "fig2.mc"},
  };
  std::string Got;
  for (const Session &S : Sessions) {
    const std::string Args =
        std::string(S.Flags) + " --debug " + S.Cmds + " --cmd q";
    Got += "# sldbc " + Args + " " + S.Input + "\n";
    Got += runCommand(std::string("'") + SLDB_SLDBC_PATH + "' " + Args +
                      " '" SLDB_INPUT_DIR "/" + S.Input +
                      "' </dev/null 2>/dev/null");
  }
  checkGolden("report_cli.txt", Got);
}

#endif // SLDB_SLDBC_PATH

#if defined(SLDB_SLDBC_PATH) && defined(SLDB_ENDANGERED_TOUR_PATH)

// The endangered-variable tour: one report per Figure-1 verdict, each
// with its warning.
TEST(ReportGolden, EndangeredTour) {
  checkGolden("report_tour.txt",
              runCommand("'" SLDB_ENDANGERED_TOUR_PATH "' 2>/dev/null"));
}

#endif

} // namespace
