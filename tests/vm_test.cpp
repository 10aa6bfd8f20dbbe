//===- tests/vm_test.cpp - Simulator semantics + verifier ------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestCompile.h"
#include "codegen/MachineVerifier.h"
#include "eval/Programs.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

using namespace sldb;

namespace {

CompiledModule build(std::string_view Src, bool Optimize = true,
                     bool Promote = true) {
  return compileOrAbort(Src, Optimize ? OptOptions::all() : OptOptions::none(),
                        {Promote});
}

} // namespace

TEST(MachineVerifier, CleanOnAllConfigs) {
  const char *Src = R"(
    int helper(int a, double b) { return a + (b > 0.5); }
    int main() {
      int arr[4];
      for (int i = 0; i < 4; i = i + 1) arr[i] = helper(i, i * 0.3);
      print(arr[3]);
      return 0;
    }
  )";
  for (bool Opt : {false, true})
    for (bool Promote : {false, true}) {
      auto [IR, MM] = build(Src, Opt, Promote);
      std::vector<std::string> Errors;
      bool OK = verifyMachineModule(MM, Errors);
      std::string Joined;
      for (auto &E : Errors)
        Joined += E + "\n";
      EXPECT_TRUE(OK) << Joined;
    }
}

TEST(VMExec, StepExecutesExactlyOneInstruction) {
  auto [IR, MM] = build("int main() { int x = 1; return x + 2; }",
                        /*Optimize=*/false);
  Machine VM(MM);
  VM.run(); // Runs to completion first...
  Machine VM2(MM);
  // ... then re-drive manually: set a breakpoint at address 0 and step.
  VM2.setBreakpoint({0, 0});
  ASSERT_EQ(VM2.run(), StopReason::Breakpoint);
  std::uint64_t C0 = VM2.instrCount();
  VM2.step();
  EXPECT_EQ(VM2.instrCount(), C0 + 1);
}

TEST(VMExec, BreakpointAtEntryFires) {
  auto [IR, MM] = build("int main() { return 7; }", false);
  Machine VM(MM);
  VM.setBreakpoint({0, 0});
  EXPECT_EQ(VM.run(), StopReason::Breakpoint);
  EXPECT_EQ(VM.pc().Local, 0u);
  EXPECT_EQ(VM.resume(), StopReason::Exited);
  EXPECT_EQ(VM.exitValue(), 7);
}

TEST(VMExec, RecursionMaintainsFrames) {
  auto [IR, MM] = build(R"(
    int fact(int n) {
      if (n <= 1) return 1;
      return n * fact(n - 1);
    }
    int main() { return fact(6); }
  )",
                        false);
  const MachineFunction *Fact = MM.findFunc("fact");
  ASSERT_NE(Fact, nullptr);
  std::uint32_t FactIdx =
      static_cast<std::uint32_t>(Fact - &MM.Funcs[0]);
  Machine VM(MM);
  VM.setBreakpoint({FactIdx, 0});
  std::size_t MaxDepth = 0;
  StopReason R = VM.run();
  while (R == StopReason::Breakpoint) {
    MaxDepth = std::max(MaxDepth, VM.frameDepth());
    R = VM.resume();
  }
  EXPECT_EQ(R, StopReason::Exited);
  EXPECT_EQ(VM.exitValue(), 720);
  EXPECT_GE(MaxDepth, 5u); // fact(6..2) nest.
}

TEST(VMExec, CalleeSavesEverythingExceptReturnValue) {
  // The caller's locals must survive a call that heavily uses registers.
  auto [IR, MM] = build(R"(
    int churn(int n) {
      int a = n; int b = a + 1; int c = b + 1; int d = c + 1;
      int e = d + 1; int f = e + 1; int g = f + 1; int h = g + 1;
      return a + b + c + d + e + f + g + h;
    }
    int main() {
      int keep1 = 101; int keep2 = 202; int keep3 = 303;
      int r = churn(5);
      print(keep1); print(keep2); print(keep3); print(r);
      return 0;
    }
  )");
  Machine VM(MM);
  ASSERT_EQ(VM.run(), StopReason::Exited);
  EXPECT_EQ(VM.outputText(), "101\n202\n303\n68\n");
}

TEST(VMExec, MarkersAreFreeAtRuntime) {
  // Dead markers occupy addresses but execute as zero-cost no-ops and
  // are excluded from the dynamic instruction count.
  const char *Src = R"(
    int main() {
      int dead1 = 1;
      int dead2 = 2;
      int live = 42;
      print(live);
      return 0;
    }
  )";
  auto [IR, MM] = build(Src, /*Optimize=*/true);
  unsigned Markers = 0;
  for (const MachineBlock &B : MM.Funcs[0].Blocks)
    for (const MInstr &I : B.Insts)
      Markers += I.Op == MOp::MDEAD;
  EXPECT_GE(Markers, 2u);
  Machine VM(MM);
  ASSERT_EQ(VM.run(), StopReason::Exited);
  // Count executed real instructions by hand: everything except markers.
  std::uint64_t Real = 0;
  for (const MachineBlock &B : MM.Funcs[0].Blocks)
    for (const MInstr &I : B.Insts)
      Real += !I.isMarker();
  EXPECT_EQ(VM.instrCount(), Real); // Straight-line main.
}

TEST(VMExec, MemoryInspection) {
  auto [IR, MM] = build(R"(
    int table[4];
    int main() {
      table[0] = 11; table[1] = 22; table[2] = 33; table[3] = 44;
      return 0;
    }
  )",
                        false);
  Machine VM(MM);
  ASSERT_EQ(VM.run(), StopReason::Exited);
  std::size_t Base = MM.globalAddr(MM.Info->Globals[0]);
  ASSERT_NE(Base, MachineModule::NoGlobal);
  EXPECT_EQ(VM.readMemInt(Base + 0), 11);
  EXPECT_EQ(VM.readMemInt(Base + 3), 44);
}

TEST(VMExec, TrapOnBadPointer) {
  auto [IR2, MM2] = build(R"(
    int main() {
      int x = 5;
      int* p = &x;
      p = p + 100000000;    // way outside memory
      return *p;
    }
  )",
                          false);
  Machine VM(MM2);
  EXPECT_EQ(VM.run(), StopReason::Trapped);
}

TEST(VMExec, RerunIsDeterministic) {
  auto [IR, MM] = build(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) s = s + i * i;
      print(s);
      return s;
    }
  )");
  Machine VM(MM);
  ASSERT_EQ(VM.run(), StopReason::Exited);
  std::string Out1 = VM.outputText();
  std::int64_t Exit1 = VM.exitValue();
  ASSERT_EQ(VM.run(), StopReason::Exited); // Full reset + rerun.
  EXPECT_EQ(VM.outputText(), Out1);
  EXPECT_EQ(VM.exitValue(), Exit1);
}

//===----------------------------------------------------------------------===//
// Breakpoint semantics: stopping never changes the run
//===----------------------------------------------------------------------===//

namespace {

struct RunResult {
  StopReason Reason;
  std::uint64_t Instrs;
  std::string Output;
  std::int64_t Exit;
  unsigned Stops;
};

/// Runs \p VM to its end, resuming after every breakpoint stop.
RunResult runToEnd(Machine &VM) {
  RunResult R{VM.run(), 0, "", 0, 0};
  for (; R.Reason == StopReason::Breakpoint; R.Reason = VM.resume())
    ++R.Stops;
  R.Instrs = VM.instrCount();
  R.Output = VM.outputText();
  R.Exit = VM.exitValue();
  return R;
}

void expectSameRun(const RunResult &A, const RunResult &B,
                   const std::string &What) {
  EXPECT_EQ(A.Reason, B.Reason) << What;
  EXPECT_EQ(A.Instrs, B.Instrs) << What;
  EXPECT_EQ(A.Output, B.Output) << What;
  EXPECT_EQ(A.Exit, B.Exit) << What;
}

} // namespace

TEST(VMBreakpoints, EveryStatementStopLeavesTheRunUnchanged) {
  for (const BenchProgram &P : benchmarkPrograms())
    for (bool Opt : {false, true}) {
      const std::string What = std::string(P.Name) + (Opt ? " -O2" : " -O0");
      auto [IR, MM] = build(P.Source, Opt);
      Machine Plain(MM);
      const RunResult Free = runToEnd(Plain);
      ASSERT_EQ(Free.Reason, StopReason::Exited) << What;
      EXPECT_EQ(Free.Stops, 0u) << What;

      Machine Stopping(MM);
      for (std::uint32_t F = 0; F < MM.Funcs.size(); ++F)
        for (std::int32_t A : MM.Funcs[F].StmtAddr)
          if (A >= 0)
            Stopping.setBreakpoint({F, static_cast<std::uint32_t>(A)});
      const RunResult Stopped = runToEnd(Stopping);
      EXPECT_GT(Stopped.Stops, 0u) << What;
      expectSameRun(Free, Stopped, What);
    }
}

TEST(VMBreakpoints, OutOfRangeBreakpointsNeverFire) {
  auto [IR, MM] = build(R"(
    int sq(int n) { return n * n; }
    int main() {
      int s = 0;
      for (int i = 0; i < 4; i = i + 1) s = s + sq(i);
      print(s);
      return s;
    }
  )");
  Machine Plain(MM);
  const RunResult Free = runToEnd(Plain);
  ASSERT_EQ(Free.Reason, StopReason::Exited);

  Machine VM(MM);
  const auto NumFuncs = static_cast<std::uint32_t>(MM.Funcs.size());
  for (std::uint32_t F = 0; F < NumFuncs; ++F)
    VM.setBreakpoint({F, MM.Funcs[F].numInstrs()}); // Past the last instr.
  VM.setBreakpoint({NumFuncs, 0});                  // No such function.
  VM.setBreakpoint({NumFuncs + 7, 3});
  VM.setBreakpoint({~0u, 0});
  const RunResult Guarded = runToEnd(VM);
  EXPECT_EQ(Guarded.Stops, 0u);
  expectSameRun(Free, Guarded, "out-of-range breakpoints");
}
