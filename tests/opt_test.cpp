//===- tests/opt_test.cpp - Optimizer + bookkeeping tests ------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "eval/Levels.h"
#include "ir/IRGen.h"
#include "ir/IRPrinter.h"
#include "ir/Interp.h"
#include "ir/Verifier.h"
#include "opt/Pass.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>

using namespace sldb;

namespace {

std::unique_ptr<IRModule> compile(std::string_view Src) {
  DiagnosticEngine Diags;
  auto M = compileToIR(Src, Diags);
  EXPECT_TRUE(M != nullptr) << Diags.str();
  return M;
}

void expectVerifies(IRModule &M) {
  std::vector<std::string> Errors;
  bool OK = verifyModule(M, Errors);
  std::string Joined;
  for (auto &E : Errors)
    Joined += E + "\n";
  EXPECT_TRUE(OK) << Joined << printModule(M);
}

/// Compiles twice and checks that optimization preserves observable
/// behavior (output, exit value, no new traps).
void differential(std::string_view Src,
                  OptOptions Opts = OptOptions::all()) {
  auto M0 = compile(Src);
  auto M2 = compile(Src);
  ASSERT_TRUE(M0 && M2);
  ASSERT_TRUE(runPipelineEx(*M2, Opts, PipelineConfig()).ok());
  expectVerifies(*M2);
  ExecResult R0 = interpretIR(*M0);
  ExecResult R2 = interpretIR(*M2);
  EXPECT_FALSE(R0.Trapped) << R0.TrapMsg;
  EXPECT_FALSE(R2.Trapped) << R2.TrapMsg << "\n" << printModule(*M2);
  EXPECT_EQ(R0.outputText(), R2.outputText()) << printModule(*M2);
  EXPECT_EQ(R0.ExitValue, R2.ExitValue) << printModule(*M2);
}

struct InstrCounts {
  unsigned Hoisted = 0, Sunk = 0, DeadMarkers = 0, AvailMarkers = 0,
           RecoveryMarkers = 0;
};

InstrCounts countAnnotations(const IRModule &M) {
  InstrCounts C;
  for (const auto &F : M.Funcs)
    for (const auto &B : F->Blocks)
      for (const Instr &I : B->Insts) {
        if (I.IsHoisted && I.IsSourceAssign)
          ++C.Hoisted;
        if (I.IsSunk)
          ++C.Sunk;
        if (I.Op == Opcode::DeadMarker) {
          ++C.DeadMarkers;
          if (!I.Recovery.isNone())
            ++C.RecoveryMarkers;
        }
        if (I.Op == Opcode::AvailMarker)
          ++C.AvailMarkers;
      }
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Individual passes
//===----------------------------------------------------------------------===//

TEST(LocalSimplify, FoldsConstants) {
  auto M = compile("int main() { int x = 2 + 3 * 4; return x; }");
  auto P = createLocalSimplifyPass();
  // IRGen already folds nothing; two rounds fold the tree bottom-up.
  P->run(*M->Funcs[0], *M);
  P->run(*M->Funcs[0], *M);
  // After const prop + folding the add of constants becomes a copy.
  auto CP = createConstantPropagationPass();
  CP->run(*M->Funcs[0], *M);
  P->run(*M->Funcs[0], *M);
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.ExitValue, 14);
}

TEST(ConstProp, PropagatesAcrossBlocks) {
  auto M = compile(R"(
    int main() {
      int x = 5;
      int y;
      if (x > 0) { y = x + 1; } else { y = x - 1; }
      return y;
    }
  )");
  auto CP = createConstantPropagationPass();
  bool Changed = CP->run(*M->Funcs[0], *M);
  EXPECT_TRUE(Changed);
  // Some use of x became the constant 5.
  bool FoundConst = false;
  for (const auto &B : M->Funcs[0]->Blocks)
    for (const Instr &I : B->Insts)
      for (const Value &Op : I.Ops)
        if (Op.isConstInt() && Op.IntVal == 5)
          FoundConst = true;
  EXPECT_TRUE(FoundConst);
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.ExitValue, 6);
}

TEST(ConstProp, DoesNotMergeDifferentConstants) {
  auto M = compile(R"(
    int main() {
      int c = 1;
      int x;
      if (c) { x = 1; } else { x = 2; }
      int y = x + 0;
      return y;
    }
  )");
  ExecResult Before = interpretIR(*M);
  auto CP = createConstantPropagationPass();
  CP->run(*M->Funcs[0], *M);
  ExecResult After = interpretIR(*M);
  EXPECT_EQ(Before.ExitValue, After.ExitValue);
}

TEST(CopyProp, PropagatesThroughChain) {
  differential(R"(
    int main() {
      int a = 10;
      int b = a;
      int c = b;
      print(c);
      return c;
    }
  )");
}

TEST(CopyProp, RespectsRedefinition) {
  differential(R"(
    int main() {
      int a = 1;
      int b = a;
      a = 2;
      print(b);  // must still print 1
      print(a);
      return 0;
    }
  )");
}

TEST(DCE, DeadAssignmentLeavesMarker) {
  auto M = compile(R"(
    int main() {
      int a = 7;
      int b = a + 1;
      int c = a;
      return a;
    }
  )");
  auto DCE = createDeadCodeEliminationPass();
  EXPECT_TRUE(DCE->run(*M->Funcs[0], *M));
  InstrCounts C = countAnnotations(*M);
  EXPECT_EQ(C.DeadMarkers, 2u); // b and c.
  EXPECT_GE(C.RecoveryMarkers, 1u); // c = a recoverable from a.
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.ExitValue, 7);
}

TEST(DCE, HoistedCopyDeletedWithoutMarker) {
  auto M = compile("int main() { int a = 1; int b = a; return a; }");
  // Mark the b-assignment as a compiler-inserted sunk copy; DCE must then
  // delete it silently.
  for (auto &B : M->Funcs[0]->Blocks)
    for (Instr &I : B->Insts)
      if (I.IsSourceAssign && I.Dest.isVar() &&
          M->Info->var(I.Dest.Id).Name == "b")
        I.IsSunk = true;
  auto DCE = createDeadCodeEliminationPass();
  DCE->run(*M->Funcs[0], *M);
  EXPECT_EQ(countAnnotations(*M).DeadMarkers, 0u);
}

TEST(DCE, KeepsSideEffects) {
  auto M = compile(R"(
    int f() { print(99); return 1; }
    int main() {
      int unused = f();   // call must survive
      return 0;
    }
  )");
  auto DCE = createDeadCodeEliminationPass();
  DCE->run(*M->Funcs[1], *M);
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.outputText(), "99\n");
}

TEST(CSE, EliminatesRedundantExpression) {
  auto M = compile(R"(
    int main() {
      int y = 2; int z = 3;
      int x = y + z;
      int w = y + z;
      print(x); print(w);
      return 0;
    }
  )");
  auto CSE = createGlobalCSEPass();
  EXPECT_TRUE(CSE->run(*M->Funcs[0], *M));
  expectVerifies(*M);
  // The second y+z computation is gone.
  unsigned Adds = 0;
  for (const auto &B : M->Funcs[0]->Blocks)
    for (const Instr &I : B->Insts)
      if (I.Op == Opcode::Add)
        ++Adds;
  EXPECT_EQ(Adds, 1u);
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.outputText(), "5\n5\n");
}

TEST(CSE, SelfKillingExpressionNotAvailable) {
  differential(R"(
    int main() {
      int x = 3;
      x = x + 1;
      x = x + 1;
      print(x);  // 5, not 4
      return 0;
    }
  )");
  auto M = compile(R"(
    int main() {
      int x = 3;
      x = x + 1;
      x = x + 1;
      print(x);
      return 0;
    }
  )");
  auto CSE = createGlobalCSEPass();
  CSE->run(*M->Funcs[0], *M);
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.outputText(), "5\n");
}

//===----------------------------------------------------------------------===//
// PRE: the paper's Figure 2
//===----------------------------------------------------------------------===//

namespace {
const char *Figure2Program = R"(
  int main() {
    int u = 7; int v = 3; int y = 2; int z = 4;
    int x = u - v;        // E0
    if (u > v) {
      x = y + z;          // E1
    } else {
      u = u + 1;          // B2 (hoisted E3 is inserted here)
    }
    x = y + z;            // E2: partially redundant
    print(x);
    print(u);
    return 0;
  }
)";
} // namespace

TEST(PRE, Figure2HoistsAndMarks) {
  auto M = compile(Figure2Program);
  auto PRE = createPartialRedundancyElimPass();
  EXPECT_TRUE(PRE->run(*M->Funcs[0], *M)) << printModule(*M);
  expectVerifies(*M);
  InstrCounts C = countAnnotations(*M);
  EXPECT_EQ(C.Hoisted, 1u) << printModule(*M);
  EXPECT_EQ(C.AvailMarkers, 1u) << printModule(*M);
  // The hoisted instance and the marker share the hoist key.
  HoistKeyId HK = InvalidHoistKey, MK = InvalidHoistKey;
  for (const auto &B : M->Funcs[0]->Blocks)
    for (const Instr &I : B->Insts) {
      if (I.IsHoisted && I.IsSourceAssign)
        HK = I.HoistKey;
      if (I.Op == Opcode::AvailMarker)
        MK = I.HoistKey;
    }
  EXPECT_EQ(HK, MK);
  EXPECT_NE(HK, InvalidHoistKey);
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.outputText(), "6\n7\n");
}

TEST(PRE, Figure2Differential) { differential(Figure2Program); }

TEST(PRE, DoesNotHoistPastUse) {
  // A use of x between the insertion point and the redundant occurrence
  // must block the transformation.
  auto M = compile(R"(
    int main() {
      int u = 7; int v = 3; int y = 2; int z = 4;
      int x = u - v;
      if (u > v) {
        x = y + z;
      } else {
        print(x);        // reads x: hoisting into this block is illegal
      }
      x = y + z;
      print(x);
      return 0;
    }
  )");
  ExecResult Before = interpretIR(*M);
  auto PRE = createPartialRedundancyElimPass();
  PRE->run(*M->Funcs[0], *M);
  expectVerifies(*M);
  ExecResult After = interpretIR(*M);
  EXPECT_EQ(Before.outputText(), After.outputText()) << printModule(*M);
}

TEST(PRE, FullRedundancyDeletedWithoutInsertion) {
  auto M = compile(R"(
    int main() {
      int y = 2; int z = 3;
      int x = y + z;
      print(x);
      x = y + z;      // fully redundant
      print(x);
      return 0;
    }
  )");
  auto PRE = createPartialRedundancyElimPass();
  PRE->run(*M->Funcs[0], *M);
  expectVerifies(*M);
  InstrCounts C = countAnnotations(*M);
  EXPECT_EQ(C.Hoisted, 0u) << printModule(*M);
  EXPECT_EQ(C.AvailMarkers, 1u) << printModule(*M);
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.outputText(), "5\n5\n");
}

TEST(PRE, LoopInvariantAssignmentInDoWhile) {
  // In a do-while the body executes at least once, so the invariant
  // assignment is down-safe at the preheader and PRE hoists it out.
  differential(R"(
    int main() {
      int y = 2; int z = 3; int i = 0;
      int x = 0;
      do {
        x = y + z;
        i = i + 1;
      } while (i < 10);
      print(x); print(i);
      return 0;
    }
  )");
}

//===----------------------------------------------------------------------===//
// PDE: the paper's Figure 3
//===----------------------------------------------------------------------===//

namespace {
const char *Figure3Program = R"(
  int main() {
    int u = 5; int v = 2; int y = 3; int z = 4;
    int x = y + z;       // E0: partially dead (B1 path kills it)
    if (u > v) {
      x = u - v;         // E1
      print(x);
    } else {
      print(x);          // uses E0's value
    }
    return 0;
  }
)";
} // namespace

TEST(PDE, Figure3SinksAndMarks) {
  auto M = compile(Figure3Program);
  auto PDE = createPartialDeadCodeElimPass();
  EXPECT_TRUE(PDE->run(*M->Funcs[0], *M)) << printModule(*M);
  expectVerifies(*M);
  InstrCounts C = countAnnotations(*M);
  // Both `x = y + z` and (transitively) `y = 3` are partially dead; the
  // pass may sink either or both.
  EXPECT_GE(C.Sunk, 1u) << printModule(*M);
  EXPECT_GE(C.DeadMarkers, 1u) << printModule(*M);
  EXPECT_EQ(C.Sunk, C.DeadMarkers) << printModule(*M);
  // The sunk x-assignment lands in the branch that reads x.
  bool SunkX = false;
  for (const auto &B : M->Funcs[0]->Blocks)
    for (const Instr &I : B->Insts)
      if (I.IsSunk && I.Dest.isVar() &&
          M->Info->var(I.Dest.Id).Name == "x")
        SunkX = true;
  EXPECT_TRUE(SunkX) << printModule(*M);
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.outputText(), "3\n");
}

TEST(PDE, Figure3Differential) { differential(Figure3Program); }

TEST(PDE, NoSinkWhenLiveEverywhere) {
  auto M = compile(R"(
    int main() {
      int y = 1; int z = 2;
      int x = y + z;
      if (y < z) { print(x); } else { print(x + 1); }
      return 0;
    }
  )");
  auto PDE = createPartialDeadCodeElimPass();
  EXPECT_FALSE(PDE->run(*M->Funcs[0], *M)) << printModule(*M);
}

TEST(PDE, SinkOntoSplitEdge) {
  // The live successor is a join block with several predecessors: the
  // sunk copy must land on a split edge, not in the join.
  differential(R"(
    int main() {
      int a = 1; int b = 2;
      int x = a + b;
      if (a < b) {
        if (b > 0) { x = 9; }
        print(x);
      }
      print(a);
      return 0;
    }
  )");
}

//===----------------------------------------------------------------------===//
// Loop optimizations
//===----------------------------------------------------------------------===//

TEST(LICM, HoistsInvariantTemp) {
  auto M = compile(R"(
    int g = 3;
    int main() {
      int s = 0;
      int a[10];
      for (int i = 0; i < 10; i = i + 1) {
        a[i] = i;
        s = s + a[2];   // &a is loop-invariant address computation
      }
      print(s);
      return 0;
    }
  )");
  ExecResult Before = interpretIR(*M);
  auto LICM = createLoopInvariantCodeMotionPass();
  LICM->run(*M->Funcs[0], *M);
  expectVerifies(*M);
  ExecResult After = interpretIR(*M);
  EXPECT_EQ(Before.outputText(), After.outputText());
}

TEST(IVOpt, StrengthReducesMultiplication) {
  auto M = compile(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 8; i = i + 1) {
        s = s + i * 4;
      }
      print(s);
      return 0;
    }
  )");
  ExecResult Before = interpretIR(*M);
  auto IV = createInductionVariableOptPass();
  bool Changed = IV->run(*M->Funcs[0], *M);
  EXPECT_TRUE(Changed) << printModule(*M);
  expectVerifies(*M);
  ExecResult After = interpretIR(*M);
  EXPECT_EQ(Before.outputText(), After.outputText()) << printModule(*M);
  // An SR record for i exists.
  EXPECT_FALSE(M->Funcs[0]->SRRecords.empty());
}

TEST(IVOpt, FullPipelineEliminatesIV) {
  // After SR + LFTR + propagation, the IV update may die; DCE must attach
  // affine recovery to its marker.
  auto M = compile(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 8; i = i + 1) {
        s = s + i * 4;
      }
      print(s);
      return 0;
    }
  )");
  ASSERT_TRUE(runPipelineEx(*M, OptOptions::all(), PipelineConfig()).ok());
  expectVerifies(*M);
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.outputText(), "112\n");
}

TEST(LoopPeel, PreservesSemanticsAndDuplicatesMarkers) {
  auto M = compile(R"(
    int main() {
      int s = 0;
      int dead = 1;      // dead: a marker will exist inside the loop? no —
      for (int i = 0; i < 5; i = i + 1) {
        int t = i * 2;   // becomes dead after this stmt? no, used:
        s = s + t;
      }
      print(s);
      return s;
    }
  )");
  ExecResult Before = interpretIR(*M);
  auto Peel = createLoopPeelPass();
  EXPECT_TRUE(Peel->run(*M->Funcs[0], *M));
  expectVerifies(*M);
  ExecResult After = interpretIR(*M);
  EXPECT_EQ(Before.outputText(), After.outputText()) << printModule(*M);
  EXPECT_EQ(Before.ExitValue, After.ExitValue);
}

TEST(LoopUnroll, ReplicatesBodyPreservingSemantics) {
  const char *Src = R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 9; i = i + 1) {
        s = s + i * i;
      }
      print(s);
      return s;
    }
  )";
  auto M = compile(Src);
  ExecResult Before = interpretIR(*M);
  auto Unroll = createLoopUnrollPass();
  EXPECT_TRUE(Unroll->run(*M->Funcs[0], *M));
  expectVerifies(*M);
  ExecResult After = interpretIR(*M);
  EXPECT_EQ(Before.outputText(), After.outputText()) << printModule(*M);
  EXPECT_EQ(Before.ExitValue, After.ExitValue);
  // The body now exists twice: two `i = i + 1` source assignments.
  unsigned IncCopies = 0;
  for (const auto &B : M->Funcs[0]->Blocks)
    for (const Instr &I : B->Insts)
      if (I.Op == Opcode::Add && I.IsSourceAssign && I.Dest.isVar() &&
          M->Info->var(I.Dest.Id).Name == "i")
        ++IncCopies;
  EXPECT_EQ(IncCopies, 2u);
}

TEST(LoopUnroll, DuplicatesMarkersWithCode) {
  // A dead assignment inside the loop leaves a marker; unrolling must
  // duplicate the marker with the body (paper §3, code duplication).
  const char *Src = R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 5; i = i + 1) {
        int scratch = s * 3;   // dead
        s = s + 1;
      }
      print(s);
      return 0;
    }
  )";
  auto M = compile(Src);
  auto DCE = createDeadCodeEliminationPass();
  DCE->run(*M->Funcs[0], *M);
  unsigned MarkersBefore = countAnnotations(*M).DeadMarkers;
  auto Unroll = createLoopUnrollPass();
  ASSERT_TRUE(Unroll->run(*M->Funcs[0], *M));
  unsigned MarkersAfter = countAnnotations(*M).DeadMarkers;
  EXPECT_EQ(MarkersAfter, 2 * MarkersBefore) << printModule(*M);
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.outputText(), "5\n");
}

TEST(BranchOptT, FoldsConstantBranchAndRemovesDeadCode) {
  auto M = compile(R"(
    int main() {
      int x;
      if (1 < 2) { x = 10; } else { x = 20; }
      return x;
    }
  )");
  ASSERT_TRUE(runPipelineEx(*M, OptOptions::all(), PipelineConfig()).ok());
  expectVerifies(*M);
  ExecResult R = interpretIR(*M);
  EXPECT_EQ(R.ExitValue, 10);
}

//===----------------------------------------------------------------------===//
// Full-pipeline differential corpus
//===----------------------------------------------------------------------===//

TEST(PipelineDiff, Fibonacci) {
  differential(R"(
    int fib(int n) {
      if (n < 2) return n;
      return fib(n - 1) + fib(n - 2);
    }
    int main() {
      for (int i = 0; i < 12; i = i + 1) print(fib(i));
      return 0;
    }
  )");
}

TEST(PipelineDiff, PointerHeavy) {
  differential(R"(
    void swap(int* a, int* b) { int t = *a; *a = *b; *b = t; }
    int main() {
      int buf[16];
      for (int i = 0; i < 16; i = i + 1) buf[i] = 16 - i;
      for (int i = 0; i < 15; i = i + 1)
        for (int j = 0; j < 15 - i; j = j + 1)
          if (buf[j] > buf[j + 1]) swap(&buf[j], &buf[j + 1]);
      for (int i = 0; i < 16; i = i + 1) print(buf[i]);
      return 0;
    }
  )");
}

TEST(PipelineDiff, GlobalState) {
  differential(R"(
    int counter = 0;
    int bump(int by) { counter = counter + by; return counter; }
    int main() {
      int total = 0;
      for (int i = 1; i <= 5; i = i + 1) total = total + bump(i);
      print(total); print(counter);
      return 0;
    }
  )");
}

TEST(PipelineDiff, Doubles) {
  differential(R"(
    double avg(double a, double b) { return (a + b) / 2.0; }
    int main() {
      double acc = 0.0;
      for (int i = 0; i < 10; i = i + 1) {
        acc = avg(acc, i * 1.5);
        printd(acc);
      }
      return 0;
    }
  )");
}

TEST(PipelineDiff, ShortCircuitSideEffects) {
  differential(R"(
    int calls = 0;
    int probe(int v) { calls = calls + 1; return v; }
    int main() {
      int a = 0;
      if (probe(1) && probe(0) && probe(1)) a = 5;
      if (probe(0) || probe(1)) a = a + 1;
      print(a); print(calls);
      return 0;
    }
  )");
}

TEST(PipelineDiff, NestedLoopsWithBreaks) {
  differential(R"(
    int main() {
      int hits = 0;
      for (int i = 0; i < 10; i = i + 1) {
        for (int j = 0; j < 10; j = j + 1) {
          if (i * j > 30) break;
          if ((i + j) % 3 == 0) continue;
          hits = hits + 1;
        }
      }
      print(hits);
      return hits;
    }
  )");
}

TEST(PipelineDiff, AddressTakenLocals) {
  differential(R"(
    void addOne(int* p) { *p = *p + 1; }
    int main() {
      int x = 5;
      int y = x + 2;     // candidate for everything
      addOne(&x);
      int z = x + 2;     // NOT redundant: x changed through pointer
      print(y); print(z);
      return 0;
    }
  )");
}

TEST(PipelineDiff, TernaryAndCompound) {
  differential(R"(
    int main() {
      int a = 3; int b = 7;
      int m = a > b ? a : b;
      m += a; m *= 2; m -= b; m /= 3; m %= 11;
      print(m);
      return m;
    }
  )");
}

TEST(PipelineDiff, BitwiseNotAndMinQuotient) {
  // `~` folds as bitwise not, and INT64_MIN / -1 and % -1 are INT64_MIN
  // and 0, alike in the interpreter and in both constant folders: the
  // sparse level's SparseProp and O2's local folding.
  const char *Src = R"(
    int main() {
      int c = 5;
      int d = ~c;
      print(d);
      int e = ~0;
      print(e);
      int m = -9223372036854775807 - 1;
      int n = -1;
      print(m / n);
      print(m % n);
      return 0;
    }
  )";
  EXPECT_EQ(interpretIR(*compile(Src)).outputText(),
            "-6\n-1\n-9223372036854775808\n0\n");
  differential(Src, findLevel("sparse")->Opts);
  differential(Src);
}

TEST(PipelineDiff, LftrBoundOverflowKeepsExitTest) {
  // Strength reduction makes s == i * 2^62; replacing `i < 3` with
  // `s < 3 * 2^62` would compare against a wrapped bound and exit after
  // the first iteration.  Every level must print all three products
  // (the last one wraps to INT64_MIN).
  std::ifstream In(std::string(SLDB_INPUT_DIR) + "/lftr_overflow.mc");
  ASSERT_TRUE(In) << "missing input lftr_overflow.mc";
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::string Src = Buf.str();
  EXPECT_EQ(interpretIR(*compile(Src)).outputText(),
            "0\n4611686018427387904\n-9223372036854775808\n");
  for (const LevelSpec &L : pipelineLevels()) {
    SCOPED_TRACE(L.Name);
    differential(Src, L.Opts);
  }
}

//===----------------------------------------------------------------------===//
// Verify-each: the IR verifier runs after every pass
//===----------------------------------------------------------------------===//

namespace {

/// Runs O2 over a one-function program whose IR the AfterPass hook
/// damages right after the first pass: a dead marker naming a variable
/// id past the end of the table.  Passes ignore markers, so the second
/// pass (local folding) runs over the damage, and the verifier after it
/// is the first to see it.  \p Ran receives every pass the hook saw.
Status runWithBogusMarker(bool VerifyEach, std::vector<std::string> &Ran) {
  auto M = compile("int main() { int x = 1; print(x); return x; }");
  PipelineConfig Config;
  Config.VerifyEach = VerifyEach;
  Config.AfterPass = [&Ran](IRFunction &F, IRModule &Mod, AnalysisManager &,
                            const char *PassName) {
    Ran.push_back(PassName);
    if (Ran.size() > 1)
      return;
    Instr Bogus;
    Bogus.Op = Opcode::DeadMarker;
    Bogus.MarkVar = static_cast<VarId>(Mod.Info->Vars.size() + 7);
    F.Blocks[0]->Insts.insert(F.Blocks[0]->Insts.begin(), Bogus);
  };
  return runPipelineEx(*M, OptOptions::all(), Config);
}

/// The failure must name the pass after the damage and stop the run.
void expectCaughtAfterSecondPass(const Status &S,
                                 const std::vector<std::string> &Ran) {
  const std::vector<std::string> Names = pipelinePassNames(OptOptions::all());
  ASSERT_GT(Names.size(), 2u);
  EXPECT_EQ(S.code(), ErrorCode::VerifyFailure) << S.str();
  EXPECT_NE(S.message().find("after pass '" + Names[1] + "'"),
            std::string::npos)
      << S.str();
  EXPECT_NE(S.message().find("marker var out of range"), std::string::npos)
      << S.str();
  EXPECT_EQ(Ran, (std::vector<std::string>{Names[0], Names[1]}));
}

} // namespace

TEST(VerifyEach, FailureNamesTheNextPassAndStopsThePipeline) {
  std::vector<std::string> Ran;
  Status S = runWithBogusMarker(/*VerifyEach=*/true, Ran);
  expectCaughtAfterSecondPass(S, Ran);
}

TEST(VerifyEach, EnvironmentVariableTurnsItOn) {
  // opt_test_verify_each runs this binary with SLDB_VERIFY_EACH=1.
  const char *Env = std::getenv("SLDB_VERIFY_EACH");
  if (!Env || !*Env || std::string(Env) == "0")
    GTEST_SKIP() << "SLDB_VERIFY_EACH is not set";
  std::vector<std::string> Ran;
  Status S = runWithBogusMarker(/*VerifyEach=*/false, Ran);
  expectCaughtAfterSecondPass(S, Ran);
}

//===----------------------------------------------------------------------===//
// Randomized differential testing
//===----------------------------------------------------------------------===//

namespace {

/// Generates a random, terminating, division-free MiniC program.
class ProgramGenerator {
public:
  explicit ProgramGenerator(unsigned Seed) : Rng(Seed) {}

  std::string generate() {
    Src.clear();
    Src += "int main() {\n";
    for (int V = 0; V < 6; ++V)
      Src += "  int v" + std::to_string(V) + " = " +
             std::to_string(static_cast<int>(Rng() % 20) - 10) + ";\n";
    genStmts(2, 8);
    for (int V = 0; V < 6; ++V)
      Src += "  print(v" + std::to_string(V) + ");\n";
    Src += "  return 0;\n}\n";
    return Src;
  }

private:
  std::string var() { return "v" + std::to_string(Rng() % 6); }

  std::string expr(int Depth) {
    if (Depth <= 0 || Rng() % 3 == 0) {
      if (Rng() % 2)
        return var();
      return std::to_string(static_cast<int>(Rng() % 10) - 5);
    }
    static const char *Ops[] = {"+", "-", "*", "<", ">", "==", "&", "|"};
    return "(" + expr(Depth - 1) + " " + Ops[Rng() % 8] + " " +
           expr(Depth - 1) + ")";
  }

  void genStmts(int Depth, int Count) {
    for (int S = 0; S < Count; ++S) {
      switch (Rng() % 5) {
      case 0:
      case 1:
        Src += "  " + var() + " = " + expr(2) + ";\n";
        break;
      case 2:
        if (Depth > 0) {
          Src += "  if (" + expr(1) + ") {\n";
          genStmts(Depth - 1, 2 + Rng() % 3);
          Src += "  } else {\n";
          genStmts(Depth - 1, 2 + Rng() % 3);
          Src += "  }\n";
          break;
        }
        Src += "  " + var() + " = " + expr(2) + ";\n";
        break;
      case 3:
        if (Depth > 0) {
          std::string I = "i" + std::to_string(LoopId++);
          Src += "  for (int " + I + " = 0; " + I + " < " +
                 std::to_string(1 + Rng() % 5) + "; " + I + " = " + I +
                 " + 1) {\n";
          genStmts(Depth - 1, 1 + Rng() % 3);
          Src += "  }\n";
          break;
        }
        Src += "  print(" + var() + ");\n";
        break;
      case 4:
        Src += "  print(" + expr(1) + ");\n";
        break;
      }
    }
  }

  std::mt19937 Rng;
  std::string Src;
  int LoopId = 0;
};

class RandomizedOptTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(RandomizedOptTest, OptimizationPreservesSemantics) {
  ProgramGenerator Gen(GetParam());
  std::string Src = Gen.generate();
  SCOPED_TRACE(Src);
  differential(Src);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedOptTest,
                         ::testing::Range(0u, 70u));
