//===- tests/robustness_test.cpp - Fault-tolerance tier-1 tests -*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
// The failure-model contract (DESIGN.md "Failure model"):
//
//  * hostile or degenerate input produces diagnostics, never signals —
//    every file in tests/crashes/ must run through the sldbc binary to a
//    normal process exit;
//  * resource exhaustion is budgeted: parser recursion depth, VM stack,
//    and VM fuel all trap with a message naming the limit;
//  * corrupted debug annotations degrade the classifier to conservative
//    verdicts (Suspect/Nonresident, never Current, never Recoverable)
//    with a diagnostic finding, instead of asserting;
//  * the degraded path is never *less* conservative than the fault-free
//    path for the same (breakpoint, variable) query.
//
//===----------------------------------------------------------------------===//

#include "TestCompile.h"
#include "core/Classifier.h"
#include "fuzz/ProgramGen.h"
#include "ir/IRGen.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <vector>

using namespace sldb;

namespace {

std::vector<std::string> crashCorpus() {
  std::vector<std::string> Files;
  DIR *D = opendir(SLDB_CRASH_DIR);
  if (!D)
    return Files;
  while (dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > 6 && Name.rfind(".minic") == Name.size() - 6)
      Files.push_back(std::string(SLDB_CRASH_DIR) + "/" + Name);
  }
  closedir(D);
  return Files;
}

/// Runs sldbc on \p File, returns the raw wait status (-1 on spawn
/// failure).  Output is discarded; only the exit discipline matters.
/// The shell execs sldbc, so a signal that kills it shows in the status
/// instead of becoming the shell's exit code 128 + signal.
int runSldbc(const std::string &File, const std::string &ExtraArgs) {
  std::string Cmd = std::string("exec '") + SLDB_SLDBC_PATH + "' " +
                    ExtraArgs + " '" + File + "' > /dev/null 2>&1";
  return std::system(Cmd.c_str());
}

/// Compiles \p Src at -O2 with register promotion, the configuration
/// where every annotation kind (markers, hoist keys, recoveries) is
/// live, unscheduled.
CompiledModule compileOpt(std::string_view Src) {
  return compileOrAbort(Src, OptOptions::all(), {.Schedule = false});
}

// A program where dead-assignment elimination leaves an MDEAD marker
// with a copy recovery (same shape as the fuzz teeth tests).
const char *MarkerProgram = R"(
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

/// Conservativeness rank of a verdict: how little the debugger claims to
/// know.  Degrading may only move a verdict toward *higher* rank (less
/// knowledge); Noncurrent and Suspect both display a warned actual
/// value, Uninitialized and Nonresident display nothing.
int rank(const Classification &C) {
  switch (C.Kind) {
  case VarClass::Current:
    return 0;
  case VarClass::Noncurrent:
  case VarClass::Suspect:
    return 1;
  case VarClass::Uninitialized:
  case VarClass::Nonresident:
    return 2;
  }
  return 2;
}

} // namespace

//===----------------------------------------------------------------------===//
// Crash corpus: hostile input through the real driver binary
//===----------------------------------------------------------------------===//

TEST(Robustness, CrashCorpusExitsCleanly) {
  std::vector<std::string> Files = crashCorpus();
  ASSERT_FALSE(Files.empty()) << "crash corpus missing at " SLDB_CRASH_DIR;
  for (const std::string &F : Files) {
    for (const char *Mode : {"-O0", "-O2"}) {
      // The fuel bound keeps the adversarial loop/recursion programs
      // terminating; compile-error programs never reach the VM.
      int St = runSldbc(F, std::string(Mode) + " --fuel 200000");
      ASSERT_NE(St, -1) << "failed to spawn sldbc for " << F;
      EXPECT_TRUE(WIFEXITED(St))
          << F << " (" << Mode << ") killed sldbc with signal "
          << (WIFSIGNALED(St) ? WTERMSIG(St) : 0)
          << " — hostile input must produce a diagnostic, not a crash";
    }
  }
}

TEST(Robustness, ReplInspectionBeforeRunIsAMessage) {
  // Before `run` there is no current function: every inspection command
  // must answer with a message, not index the function table.
  const std::string File = SLDB_INPUTS_DIR "/fig2.mc";
  for (const char *Mode : {"-O0", "-O2"})
    for (const char *Verb : {"scope", "where", "stmts", "storage", "p x",
                             "explain x", "explainj x"}) {
      std::string Cmd = std::string("exec '") + SLDB_SLDBC_PATH + "' " +
                        Mode + " --debug --cmd '" + Verb +
                        "' --cmd q '" + File + "' </dev/null 2>&1";
      FILE *P = popen(Cmd.c_str(), "r");
      ASSERT_NE(P, nullptr);
      std::string Out;
      char Buf[256];
      while (std::fgets(Buf, sizeof(Buf), P))
        Out += Buf;
      int St = pclose(P);
      EXPECT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0)
          << "'" << Verb << "' (" << Mode << "): "
          << (WIFSIGNALED(St) ? "killed by signal " : "exit status ")
          << (WIFSIGNALED(St) ? WTERMSIG(St) : WEXITSTATUS(St));
      EXPECT_NE(Out.find("no program is running"), std::string::npos)
          << "'" << Verb << "' (" << Mode << "): " << Out;
    }
}

TEST(Robustness, ReplInspectionAfterExitIsAMessage) {
  // After the program exits the PC still names its last function, but
  // there is no stop: no inspection command may show a value from the
  // finished run (`p t` printed `t current = -8934705946205048080` and
  // `where` printed `main() statement -1`).
  const std::string File = SLDB_INPUTS_DIR "/spill_rounds_2.mc";
  std::string Cmd = std::string("exec '") + SLDB_SLDBC_PATH +
                    "' -O2 --debug --cmd 'b main 3' --cmd run --cmd c "
                    "--cmd c";
  for (const char *Verb : {"p t", "where", "scope", "stmts", "storage",
                           "explain t", "explainj t"})
    Cmd += std::string(" --cmd '") + Verb + "'";
  Cmd += " --cmd q '" + File + "' </dev/null 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  ASSERT_NE(P, nullptr);
  std::string Out;
  char Buf[256];
  while (std::fgets(Buf, sizeof(Buf), P))
    Out += Buf;
  int St = pclose(P);
  EXPECT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0) << Out;
  const std::size_t Exit = Out.find("program exited with value -16\n");
  ASSERT_NE(Exit, std::string::npos) << Out;
  const std::string After = Out.substr(Exit);
  std::size_t Messages = 0;
  for (std::size_t At = 0;
       (At = After.find("the program has exited; use 'run' or 's'", At)) !=
       std::string::npos;
       ++At)
    ++Messages;
  EXPECT_EQ(Messages, 7u) << After;
  EXPECT_EQ(After.find("current ="), std::string::npos) << After;
  EXPECT_EQ(After.find("statement -1"), std::string::npos) << After;
}

TEST(Robustness, FuelTrapNamesBudget) {
  std::string Cmd = std::string("'") + SLDB_SLDBC_PATH + "' -O0 --fuel 5000 '" +
                    SLDB_CRASH_DIR + "/infinite-loop.minic' 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  ASSERT_NE(P, nullptr);
  std::string Out;
  char Buf[256];
  while (std::fgets(Buf, sizeof(Buf), P))
    Out += Buf;
  int St = pclose(P);
  ASSERT_TRUE(WIFEXITED(St));
  EXPECT_EQ(WEXITSTATUS(St), 1) << Out;
  EXPECT_NE(Out.find("fuel budget 5000"), std::string::npos)
      << "trap message must name the exhausted budget, got: " << Out;
}

//===----------------------------------------------------------------------===//
// sldbc --batch: a corpus directory through the real driver binary
//===----------------------------------------------------------------------===//

namespace {

/// A temporary corpus directory, removed with everything in it.
struct TempDir {
  std::filesystem::path Path;
  TempDir() {
    std::string Tmpl = ::testing::TempDir() + "sldbc-batch-XXXXXX";
    if (mkdtemp(Tmpl.data()))
      Path = Tmpl;
  }
  ~TempDir() {
    std::error_code EC;
    if (!Path.empty())
      std::filesystem::remove_all(Path, EC);
  }
  std::string file(const std::string &Name, const std::string &Text) const {
    std::string F = (Path / Name).string();
    std::ofstream(F) << Text;
    return F;
  }
};

/// Runs `sldbc --batch DIR ARGS`; returns stdout and sets the exit code.
std::string runBatch(const TempDir &D, const std::string &Args, int &Exit) {
  std::string Cmd = std::string("'") + SLDB_SLDBC_PATH + "' --batch '" +
                    D.Path.string() + "' " + Args + " 2>/dev/null";
  FILE *P = popen(Cmd.c_str(), "r");
  std::string Out;
  char Buf[256];
  while (P && std::fgets(Buf, sizeof(Buf), P))
    Out += Buf;
  int St = P ? pclose(P) : -1;
  Exit = St != -1 && WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  return Out;
}

bool contains(const std::string &Out, const std::string &Line) {
  return Out.find(Line) != std::string::npos;
}

const char *BatchOkProgram =
    "int main() { int x = 2; print(x * 3); return 0; }\n";

} // namespace

TEST(Robustness, BatchReportsEveryFileAndCountsThem) {
  TempDir D;
  ASSERT_FALSE(D.Path.empty());
  std::string Ok = D.file("ok.mc", BatchOkProgram);
  std::string Bad = D.file("bad.mc", "int main() { return 1 }\n");
  std::string Txt = D.file("notes.txt", "not a program\n");
  std::string Big =
      D.file("big.mc", BatchOkProgram + std::string(300, ' ') + "\n");
  int Exit = 0;
  std::string Out = runBatch(D, "--max-file-bytes 200", Exit);
  EXPECT_TRUE(contains(Out, Ok + ": ok (")) << Out;
  EXPECT_TRUE(contains(Out, " machine instrs)\n")) << Out;
  EXPECT_TRUE(contains(Out, Bad + ": error: ")) << Out;
  EXPECT_TRUE(contains(Out, Txt + ": skipped: not a .mc file\n")) << Out;
  EXPECT_TRUE(contains(Out, Big + ": skipped: ")) << Out;
  EXPECT_TRUE(contains(Out, "exceeds --max-file-bytes 200\n")) << Out;
  EXPECT_TRUE(contains(Out, "batch: 1 ok, 1 failed, 2 skipped, ")) << Out;
  EXPECT_EQ(Exit, 1) << Out;
}

TEST(Robustness, BatchArenaLimitIsResourceExhausted) {
  TempDir D;
  ASSERT_FALSE(D.Path.empty());
  std::string Ok = D.file("ok.mc", BatchOkProgram);
  int Exit = 0;
  std::string Out = runBatch(D, "--arena-limit 4096", Exit);
  EXPECT_TRUE(contains(Out, Ok + ": error: resource-exhausted: arena budget "
                                 "exceeded during "))
      << Out;
  EXPECT_TRUE(contains(Out, "batch: 0 ok, 1 failed, 0 skipped, ")) << Out;
  EXPECT_EQ(Exit, 1) << Out;
}

// Array sizes out of range and frames past INT32_MAX words: each file
// fails with its error, and the batch goes on.
TEST(Robustness, BatchReportsArraySizeAndFrameLimits) {
  TempDir D;
  ASSERT_FALSE(D.Path.empty());
  std::string Zero = D.file("zero.mc", "int main() { int a[0]; a = 5; "
                                       "print(a); return 0; }\n");
  std::string Wide = D.file("wide.mc", "int a[4294967298];\nint main() "
                                       "{ a = 5; print(a); return 0; }\n");
  std::string Frame =
      D.file("frame.mc", "int main() { int a[2147483647]; int b[2]; "
                         "a[0] = 1; b[0] = 2; return b[0]; }\n");
  std::string Ok = D.file("ok.mc", BatchOkProgram);
  int Exit = 0;
  std::string Out = runBatch(D, "", Exit);
  EXPECT_TRUE(contains(Out, Zero + ": error: ")) << Out;
  EXPECT_TRUE(contains(Out, "1:20: error: array size must be at least 1"))
      << Out;
  EXPECT_TRUE(contains(Out, Wide + ": error: ")) << Out;
  EXPECT_TRUE(contains(Out, "1:7: error: array size 4294967298 is too large"))
      << Out;
  EXPECT_TRUE(contains(Out, Frame + ": error: resource-exhausted: main: "
                                    "frame exceeds 2147483647 words at 'b'"))
      << Out;
  EXPECT_TRUE(contains(Out, Ok + ": ok (")) << Out;
  EXPECT_TRUE(contains(Out, "batch: 1 ok, 3 failed, 0 skipped, ")) << Out;
  EXPECT_EQ(Exit, 1) << Out;
}

TEST(Robustness, BatchCleanDirectoryExitsZero) {
  TempDir D;
  ASSERT_FALSE(D.Path.empty());
  D.file("ok.mc", BatchOkProgram);
  int Exit = -1;
  std::string Out = runBatch(D, "", Exit);
  EXPECT_TRUE(contains(Out, "batch: 1 ok, 0 failed, 0 skipped, ")) << Out;
  EXPECT_EQ(Exit, 0) << Out;
}

//===----------------------------------------------------------------------===//
// Parser recursion guard
//===----------------------------------------------------------------------===//

TEST(Robustness, ParserRecursionGuardReportsDiagnostic) {
  std::string Deep = "int main() {\n  return " + std::string(400, '(') +
                     "1" + std::string(400, ')') + ";\n}\n";
  DiagnosticEngine Diags;
  auto M = compileToIR(Deep, Diags);
  EXPECT_EQ(M, nullptr);
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("recursion limit"), std::string::npos)
      << Diags.str();
}

TEST(Robustness, ShallowNestingStillParses) {
  std::string Ok = "int main() {\n  return " + std::string(50, '(') + "1" +
                   std::string(50, ')') + ";\n}\n";
  DiagnosticEngine Diags;
  EXPECT_NE(compileToIR(Ok, Diags), nullptr) << Diags.str();
}

//===----------------------------------------------------------------------===//
// Structured errors instead of asserts
//===----------------------------------------------------------------------===//

TEST(Robustness, TooManyCallArgsIsStatusNotAssert) {
  const char *Src = R"(
    int wide(int a, int b, int c, int d, int e, int f, int g,
             int h, int i, int j) {
      return a + j;
    }
    int main() { return wide(1, 2, 3, 4, 5, 6, 7, 8, 9, 10); }
  )";
  Expected<CompiledModule> C =
      compileModule(Src, OptOptions::none(), CodegenOptions());
  ASSERT_FALSE(C.ok());
  EXPECT_EQ(C.status().code(), ErrorCode::InvalidIR);
  EXPECT_NE(C.status().message().find("integer arguments"), std::string::npos)
      << C.status().str();
}

// Frame slots are int32_t word offsets: a frame past INT32_MAX words is
// an error, not a slot offset that wraps negative.
TEST(Robustness, FramePastInt32MaxWordsIsResourceExhausted) {
  const char *Exact = "int main() { int a[2147483647]; a[0] = 1; "
                      "return a[0]; }";
  for (const char *Src :
       {"int main() { int a[2147483647]; int b[2]; a[0] = 1; b[0] = 2; "
        "return b[0]; }",
        "int main() { int a[4294967295]; a[0] = 1; return a[0]; }"}) {
    Expected<CompiledModule> C =
        compileModule(Src, OptOptions::none(), CodegenOptions());
    ASSERT_FALSE(C.ok()) << Src;
    EXPECT_EQ(C.status().code(), ErrorCode::ResourceExhausted);
    EXPECT_NE(C.status().message().find("frame exceeds 2147483647 words"),
              std::string::npos)
        << C.status().str();
  }
  // Exactly INT32_MAX words compiles; the VM has no room for it.
  Expected<CompiledModule> C =
      compileModule(Exact, OptOptions::none(), CodegenOptions());
  ASSERT_TRUE(C.ok()) << C.status().str();
  EXPECT_EQ(C->MM.Funcs[0].FrameSize, MachineFunction::MaxFrameWords);
  Machine VM(C->MM);
  EXPECT_EQ(VM.run(), StopReason::Trapped);
}

// Initialized globals laid out past the VM's memory used to be written
// out of bounds at VM construction (a segfault in sldbc).
TEST(Robustness, GlobalsPastMemoryTrapInsteadOfCrashing) {
  for (const char *Src :
       {"int a[5000000];\nint g = 3;\nint main() { return g; }",
        "int a[4294967295];\nint b[4294967295];\ndouble g = 1.5;\n"
        "int main() { return 0; }"}) {
    auto [IR, MM] = compileOrAbort(Src, OptOptions::all());
    Machine VM(MM);
    EXPECT_EQ(VM.run(), StopReason::Trapped) << Src;
    EXPECT_EQ(VM.trapMessage(), "stack overflow") << Src;
  }
}

TEST(Robustness, SpillSlotsPastInt32MaxWordsAreResourceExhausted) {
  // 36 locals live at once spill; the array already fills the frame.
  std::string Src = "int f(int a) {\n  int big[2147483647];\n  big[0] = a;\n";
  for (int I = 0; I < 36; ++I)
    Src += "  int x" + std::to_string(I) + " = a * " + std::to_string(I + 1) +
           " + " + std::to_string(7 * I + 3) + ";\n";
  Src += "  int s = big[0];\n";
  for (int I = 0; I < 36; ++I)
    Src += "  s = s + x" + std::to_string(I) + " * x" +
           std::to_string((I + 7) % 36) + " - x" +
           std::to_string((I + 13) % 36) + ";\n";
  Src += "  return s;\n}\nint main() { return f(3); }\n";
  for (const OptOptions &Opts : {OptOptions::none(), OptOptions::all()}) {
    Expected<CompiledModule> C =
        compileModule(Src, Opts, CodegenOptions());
    ASSERT_FALSE(C.ok());
    EXPECT_EQ(C.status().code(), ErrorCode::ResourceExhausted);
    EXPECT_NE(C.status().message().find("spill slots grow the frame of 'f'"),
              std::string::npos)
        << C.status().str();
  }
}

//===----------------------------------------------------------------------===//
// Degraded mode: corrupted annotations yield conservative verdicts
//===----------------------------------------------------------------------===//

TEST(Robustness, CorruptedMarkerDegradesInsteadOfAsserting) {
  auto [IR, MM] = compileOpt(MarkerProgram);

  // Deliberately destroy one dead marker (the DropDeadMarker injection,
  // applied by hand): the census no longer matches, which is
  // unattributable damage, so the whole function must degrade.
  MachineFunction *Victim = nullptr;
  for (MachineFunction &MF : MM.Funcs)
    for (MachineBlock &B : MF.Blocks)
      for (MInstr &I : B.Insts)
        if (I.Op == MOp::MDEAD && !Victim) {
          I.Op = MOp::MNOP;
          I.MarkVar = InvalidVar;
          Victim = &MF;
        }
  ASSERT_NE(Victim, nullptr) << "program must produce an MDEAD marker";

  Classifier C(*Victim, *MM.Info);
  EXPECT_FALSE(C.annotationFindings().empty())
      << "the verifier must report the marker-census mismatch";

  unsigned Queries = 0;
  for (std::size_t S = 0; S < Victim->StmtAddr.size(); ++S) {
    if (Victim->StmtAddr[S] < 0)
      continue;
    auto Addr = static_cast<std::uint32_t>(Victim->StmtAddr[S]);
    for (VarId V : MM.Info->func(Victim->Id).Locals) {
      if (!MM.Info->var(V).isScalar())
        continue;
      Classification R = C.classify(Addr, V);
      ++Queries;
      EXPECT_TRUE(C.degraded(V));
      EXPECT_TRUE(R.Degraded);
      EXPECT_NE(R.Kind, VarClass::Current)
          << "degraded verdicts must never claim Current";
      EXPECT_FALSE(R.Recoverable)
          << "degraded verdicts must never trust recovery records";
    }
  }
  EXPECT_GT(Queries, 0u);
}

TEST(Robustness, OutOfRangeAnnotationIdsDegradeSafely) {
  // A loop-invariant assignment hoisted out of the loop (hoist key for t)
  // next to eliminated assignments (dead markers).
  auto [IR, MM] = compileOpt(R"(
    int main() {
      int a = 5;
      int b = 3;
      int s = 0;
      int t = 0;
      for (int i = 0; i < 4; i = i + 1) {
        t = a * b;
        s = s + t + i;
      }
      int v = a;
      v = s + 1;
      print(v);
      print(a);
      print(t);
      return 0;
    }
  )");
  // The CorruptMarkerVar fault's bogus id, in one dead marker and one
  // hoist key: the classifier indexes both while building its
  // per-variable tables, before the verifier's findings degrade it.
  const VarId Bogus = static_cast<VarId>(MM.Info->Vars.size() + 7);
  MachineFunction &MF = MM.Funcs[0];
  ASSERT_FALSE(MF.HoistKeys.empty()) << "program must hoist an assignment";
  MF.HoistKeys[0].V = Bogus;
  bool Corrupted = false;
  for (MachineBlock &B : MF.Blocks)
    for (MInstr &I : B.Insts)
      if (I.Op == MOp::MDEAD && !Corrupted) {
        I.MarkVar = Bogus;
        Corrupted = true;
      }
  ASSERT_TRUE(Corrupted) << "program must produce an MDEAD marker";

  Classifier C(MF, *MM.Info);
  EXPECT_FALSE(C.annotationFindings().empty());
  unsigned Queries = 0;
  for (std::uint32_t Addr = 0; Addr <= MF.numInstrs(); ++Addr)
    for (VarId V = 0; V < MM.Info->Vars.size(); ++V) {
      if (!MM.Info->var(V).isScalar())
        continue;
      Classification R = C.classify(Addr, V);
      ++Queries;
      EXPECT_TRUE(C.degraded(V));
      EXPECT_TRUE(R.Degraded);
      EXPECT_NE(R.Kind, VarClass::Current);
      EXPECT_FALSE(R.Recoverable);
    }
  EXPECT_GT(Queries, 0u);
}

TEST(Robustness, CorruptedMarkerStmtDegradesOnlyItsVariable) {
  auto [IR, MM] = compileOpt(MarkerProgram);

  MachineFunction *Victim = nullptr;
  VarId Damaged = InvalidVar;
  for (MachineFunction &MF : MM.Funcs)
    for (MachineBlock &B : MF.Blocks)
      for (MInstr &I : B.Insts)
        if (I.Op == MOp::MDEAD && !Victim) {
          I.MarkStmt = 0xFFFF; // Out of the function's statement range.
          Damaged = I.MarkVar;
          Victim = &MF;
        }
  ASSERT_NE(Victim, nullptr);
  ASSERT_NE(Damaged, InvalidVar);

  Classifier C(*Victim, *MM.Info);
  EXPECT_FALSE(C.annotationFindings().empty());
  EXPECT_TRUE(C.degraded(Damaged))
      << "the marker's variable must enter degraded mode";
  bool OthersIntact = false;
  for (VarId V : MM.Info->func(Victim->Id).Locals)
    if (V != Damaged && !C.degraded(V))
      OthersIntact = true;
  EXPECT_TRUE(OthersIntact)
      << "attributable damage must not degrade unrelated variables";
}

//===----------------------------------------------------------------------===//
// Property: degrading never makes a verdict less conservative
//===----------------------------------------------------------------------===//

TEST(Robustness, DegradedNeverLessConservativeThanFaultFree) {
  unsigned Compared = 0;
  for (std::uint32_t Seed = 1; Seed <= 25; ++Seed) {
    auto [IR, MM] = compileOpt(generateProgram(Seed));

    for (const MachineFunction &MF : MM.Funcs) {
      Classifier FaultFree(MF, *MM.Info);
      Classifier Degraded(MF, *MM.Info);
      Degraded.degradeAllVariables();
      ASSERT_TRUE(FaultFree.annotationFindings().empty())
          << "seed " << Seed << " " << MF.Name << ": "
          << FaultFree.annotationFindings().front().Message;

      for (std::size_t S = 0; S < MF.StmtAddr.size(); ++S) {
        if (MF.StmtAddr[S] < 0)
          continue;
        auto Addr = static_cast<std::uint32_t>(MF.StmtAddr[S]);
        for (VarId V : MM.Info->func(MF.Id).Locals) {
          if (!MM.Info->var(V).isScalar())
            continue;
          Classification A = FaultFree.classify(Addr, V);
          Classification B = Degraded.classify(Addr, V);
          ++Compared;
          EXPECT_GE(rank(B), rank(A))
              << "seed " << Seed << " " << MF.Name << " s" << S << " var "
              << MM.Info->var(V).Name << ": degraded "
              << varClassName(B.Kind) << " is less conservative than "
              << varClassName(A.Kind);
          EXPECT_FALSE(B.Recoverable);
          EXPECT_NE(B.Kind, VarClass::Current);
        }
      }
    }
  }
  EXPECT_GT(Compared, 1000u) << "property compared too few verdicts";
}
