//===- tests/analysis_test.cpp - Data-flow framework tests -----*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFGContext.h"
#include "analysis/Dataflow.h"
#include "analysis/Dominators.h"
#include "analysis/InstrInfo.h"
#include "analysis/AliasInfo.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/ReachingDefs.h"
#include "ir/IRGen.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

using namespace sldb;

namespace {

std::unique_ptr<IRModule> compile(std::string_view Src) {
  DiagnosticEngine Diags;
  auto M = compileToIR(Src, Diags);
  EXPECT_TRUE(M != nullptr) << Diags.str();
  return M;
}

/// Finds the tracked index of a named variable.
unsigned varIdx(const IRModule &M, const ValueIndex &VI,
                const std::string &Name) {
  for (VarId V = 0; V < M.Info->Vars.size(); ++V)
    if (M.Info->var(V).Name == Name)
      return VI.varIndex(V);
  return ~0u;
}

} // namespace

TEST(CFGContext, IndicesAndEdges) {
  auto M = compile(R"(
    int main() {
      int x = 0;
      if (x) { x = 1; } else { x = 2; }
      return x;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  EXPECT_EQ(CFG.numBlocks(), F->Blocks.size());
  EXPECT_EQ(CFG.indexOf(F->entry()), 0u);
  // Edge symmetry.
  for (unsigned B = 0; B < CFG.numBlocks(); ++B)
    for (unsigned S : CFG.succs(B)) {
      bool Found = false;
      for (unsigned P : CFG.preds(S))
        Found |= P == B;
      EXPECT_TRUE(Found);
    }
  EXPECT_EQ(CFG.exits().size(), 1u);
}

TEST(Dominators, DiamondAndLoop) {
  auto M = compile(R"(
    int main() {
      int x = 0;
      if (x) { x = 1; } else { x = 2; }
      while (x < 5) { x = x + 1; }
      return x;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  Dominators Dom(CFG);
  PostDominators PDom(CFG);

  // Entry dominates everything reachable.
  for (unsigned B = 0; B < CFG.numBlocks(); ++B)
    EXPECT_TRUE(Dom.dominates(0, B)) << B;
  // Every block dominates itself.
  for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
    EXPECT_TRUE(Dom.dominates(B, B));
    EXPECT_TRUE(PDom.postDominates(B, B));
  }
  // The exit post-dominates the entry.
  ASSERT_EQ(CFG.exits().size(), 1u);
  EXPECT_TRUE(PDom.postDominates(CFG.exits()[0], 0));
  // Neither branch arm dominates the join: find the join (2 preds).
  for (unsigned B = 0; B < CFG.numBlocks(); ++B)
    if (CFG.preds(B).size() == 2)
      for (unsigned P : CFG.preds(B))
        if (CFG.preds(P).size() == 1 && P != 0) {
          EXPECT_FALSE(Dom.dominates(P, B) && PDom.postDominates(P, B));
        }
}

TEST(Dataflow, ForwardUnionReachesEverything) {
  auto M = compile(R"(
    int main() {
      int x = 1;
      while (x < 10) x = x + 1;
      return x;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Meet = FlowMeet::Union;
  P.init(CFG, 1);
  P.Gen[0].set(0); // Fact born in entry.
  DataflowResult R = solveDataflow(CFG, P);
  for (unsigned B = 0; B < CFG.numBlocks(); ++B)
    if (!CFG.preds(B).empty() || B == 0) {
      EXPECT_TRUE(R.Out[B].test(0)) << B;
    }
}

TEST(Dataflow, IntersectionRequiresAllPaths) {
  auto M = compile(R"(
    int main() {
      int x = 0;
      if (x) { x = 1; } else { x = 2; }
      return x;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);

  // Fact generated on only one branch arm must not intersect-reach the
  // join, but a fact generated before the branch must.
  DataflowProblem P;
  P.Dir = FlowDir::Forward;
  P.Meet = FlowMeet::Intersect;
  P.init(CFG, 2);
  P.Gen[0].set(0);
  // Find a branch arm (single pred == entry).
  unsigned Arm = ~0u;
  for (unsigned B = 1; B < CFG.numBlocks(); ++B)
    if (CFG.preds(B).size() == 1 && CFG.preds(B)[0] == 0)
      Arm = B;
  ASSERT_NE(Arm, ~0u);
  P.Gen[Arm].set(1);
  DataflowResult R = solveDataflow(CFG, P);
  unsigned Join = ~0u;
  for (unsigned B = 1; B < CFG.numBlocks(); ++B)
    if (CFG.preds(B).size() == 2)
      Join = B;
  ASSERT_NE(Join, ~0u);
  EXPECT_TRUE(R.In[Join].test(0));
  EXPECT_FALSE(R.In[Join].test(1));
}

TEST(Liveness, DeadAfterLastUse) {
  auto M = compile(R"(
    int main() {
      int a = 1;
      int b = a + 2;
      int c = b * 3;
      return c;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  ValueIndex VI(*F, *M->Info);
  AliasInfo AI(*F, *M->Info);
  Liveness LV(CFG, VI, *M->Info, AI);

  unsigned AIdx = varIdx(*M, VI, "a");
  ASSERT_NE(AIdx, ~0u);
  // `a` is dead at function exit.
  unsigned Exit = CFG.exits()[0];
  EXPECT_FALSE(LV.liveOut(Exit).test(AIdx));
}

TEST(Liveness, LiveAroundLoop) {
  auto M = compile(R"(
    int main() {
      int s = 0;
      int i = 0;
      while (i < 10) { s = s + i; i = i + 1; }
      return s;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  ValueIndex VI(*F, *M->Info);
  AliasInfo AI(*F, *M->Info);
  Liveness LV(CFG, VI, *M->Info, AI);
  unsigned SIdx = varIdx(*M, VI, "s");
  unsigned IIdx = varIdx(*M, VI, "i");
  // Both are live into the loop condition block (the block with 2 preds).
  for (unsigned B = 0; B < CFG.numBlocks(); ++B)
    if (CFG.preds(B).size() == 2) {
      EXPECT_TRUE(LV.liveIn(B).test(SIdx));
      EXPECT_TRUE(LV.liveIn(B).test(IIdx));
    }
}

TEST(Liveness, GlobalsLiveAtExit) {
  auto M = compile(R"(
    int g = 0;
    int main() { g = 5; return 0; }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  ValueIndex VI(*F, *M->Info);
  AliasInfo AI(*F, *M->Info);
  Liveness LV(CFG, VI, *M->Info, AI);
  unsigned GIdx = varIdx(*M, VI, "g");
  ASSERT_NE(GIdx, ~0u);
  EXPECT_TRUE(LV.liveOut(CFG.exits()[0]).test(GIdx));
}

TEST(ReachingDefs, SingleDefReachesUse) {
  auto M = compile(R"(
    int main() {
      int x = 5;
      int y = x + 1;
      return y;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  ValueIndex VI(*F, *M->Info);
  AliasInfo AI(*F, *M->Info);
  ReachingDefs RD(CFG, VI, *M->Info, AI);

  unsigned XIdx = varIdx(*M, VI, "x");
  // Walk the entry block: at the `y = x + 1` instruction, exactly one real
  // def of x reaches.
  BitVector Reach = RD.reachIn(0);
  BasicBlock *Entry = F->entry();
  for (auto It = Entry->Insts.begin(); It != Entry->Insts.end(); ++It) {
    const Instr &I = *It;
    if (I.Op == Opcode::Add && I.IsSourceAssign) {
      unsigned RealDefs = 0;
      for (unsigned D = RD.defsBegin(XIdx); D != RD.defsEnd(XIdx); ++D)
        if (Reach.test(D) && !RD.isUnknownDef(D))
          ++RealDefs;
      EXPECT_EQ(RealDefs, 1u);
      // The unknown def of x must be killed by `x = 5`.
      ASSERT_GE(RD.unknownDef(XIdx), RD.defsBegin(XIdx));
      ASSERT_LT(RD.unknownDef(XIdx), RD.defsEnd(XIdx));
      EXPECT_FALSE(Reach.test(RD.unknownDef(XIdx)));
    }
    RD.transfer(It.id(), I, Reach);
  }
}

TEST(ReachingDefs, TwoDefsMergeAtJoin) {
  auto M = compile(R"(
    int main() {
      int x = 0;
      if (x == 0) { x = 1; } else { x = 2; }
      return x;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  ValueIndex VI(*F, *M->Info);
  AliasInfo AI(*F, *M->Info);
  ReachingDefs RD(CFG, VI, *M->Info, AI);
  unsigned XIdx = varIdx(*M, VI, "x");
  unsigned Join = ~0u;
  for (unsigned B = 0; B < CFG.numBlocks(); ++B)
    if (CFG.preds(B).size() == 2)
      Join = B;
  ASSERT_NE(Join, ~0u);
  unsigned RealDefs = 0;
  for (unsigned D = RD.defsBegin(XIdx); D != RD.defsEnd(XIdx); ++D)
    if (RD.reachIn(Join).test(D) && !RD.isUnknownDef(D))
      ++RealDefs;
  EXPECT_EQ(RealDefs, 2u);
}

TEST(ReachingDefs, CallClobbersAddressTaken) {
  auto M = compile(R"(
    void mut(int* p) { *p = 9; }
    int main() {
      int x = 1;
      mut(&x);
      return x;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  ValueIndex VI(*F, *M->Info);
  AliasInfo AI(*F, *M->Info);
  ReachingDefs RD(CFG, VI, *M->Info, AI);
  unsigned XIdx = varIdx(*M, VI, "x");
  // After the call, the unknown def of x must reach the return.
  BitVector Reach = RD.reachIn(0);
  bool SawCall = false;
  BasicBlock *Entry = F->entry();
  for (auto It = Entry->Insts.begin(); It != Entry->Insts.end(); ++It) {
    const Instr &I = *It;
    RD.transfer(It.id(), I, Reach);
    if (I.Op == Opcode::Call)
      SawCall = true;
    if (SawCall && I.Op == Opcode::Call) {
      EXPECT_TRUE(Reach.test(RD.unknownDef(XIdx)));
    }
  }
}

TEST(ReachingDefs, DefinitionsGroupedByValueInInstructionOrder) {
  auto M = compile(R"(
    int main() {
      int x = 1;
      int y = 2;
      if (y > 0) { x = 3; y = x; } else { x = 4; }
      x = x + y;
      return x;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  ValueIndex VI(*F, *M->Info);
  AliasInfo AI(*F, *M->Info);
  ReachingDefs RD(CFG, VI, *M->Info, AI);

  // The ranges tile the universe in value order, each ending in its
  // value's unknown definition.
  unsigned Next = 0;
  for (unsigned V = 0; V < VI.size(); ++V) {
    ASSERT_EQ(RD.defsBegin(V), Next) << "value " << V;
    ASSERT_LT(RD.defsBegin(V), RD.defsEnd(V)) << "value " << V;
    EXPECT_EQ(RD.unknownDef(V), RD.defsEnd(V) - 1) << "value " << V;
    EXPECT_TRUE(RD.isUnknownDef(RD.unknownDef(V))) << "value " << V;
    for (unsigned D = RD.defsBegin(V); D != RD.defsEnd(V); ++D)
      EXPECT_EQ(RD.def(D).ValueIdx, V) << "def " << D;
    Next = RD.defsEnd(V);
  }
  EXPECT_EQ(Next, RD.numDefs());

  // x's real definitions come first, in CFG block and instruction order.
  unsigned XIdx = varIdx(*M, VI, "x");
  unsigned D = RD.defsBegin(XIdx);
  unsigned RealDefs = 0;
  for (unsigned B = 0; B < CFG.numBlocks(); ++B) {
    BasicBlock *BB = CFG.block(B);
    for (auto It = BB->Insts.begin(); It != BB->Insts.end(); ++It) {
      if (VI.valueIndex(It->Dest) != XIdx) {
        EXPECT_NE(RD.defIndexOf(It.id()), RD.unknownDef(XIdx));
        continue;
      }
      ASSERT_LT(D, RD.unknownDef(XIdx));
      EXPECT_EQ(RD.def(D).I, &*It);
      EXPECT_EQ(RD.defIndexOf(It.id()), D);
      EXPECT_FALSE(RD.isUnknownDef(D));
      ++D;
      ++RealDefs;
    }
  }
  EXPECT_EQ(RealDefs, 4u);
  EXPECT_EQ(D, RD.unknownDef(XIdx));
}

TEST(LoopInfo, FindsNaturalLoop) {
  auto M = compile(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 4; i = i + 1) {
        for (int j = 0; j < 4; j = j + 1) s = s + 1;
      }
      return s;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  Dominators Dom(CFG);
  LoopInfo LI(CFG, Dom);
  ASSERT_EQ(LI.loops().size(), 2u);
  // One loop contains the other.
  const Loop &A = LI.loops()[0];
  const Loop &B = LI.loops()[1];
  const Loop &Outer = A.Blocks.count() > B.Blocks.count() ? A : B;
  const Loop &Inner = A.Blocks.count() > B.Blocks.count() ? B : A;
  EXPECT_TRUE(Outer.contains(Inner.Header));
  EXPECT_FALSE(Inner.contains(Outer.Header));
  EXPECT_FALSE(Inner.Latches.empty());
  EXPECT_FALSE(Outer.ExitBlocks.empty());
}

TEST(LoopInfo, PreheaderCreation) {
  auto M = compile(R"(
    int main() {
      int i = 0;
      while (i < 10) i = i + 1;
      return i;
    }
  )");
  IRFunction *F = M->findFunc("main");
  CFGContext CFG(*F);
  Dominators Dom(CFG);
  LoopInfo LI(CFG, Dom);
  ASSERT_EQ(LI.loops().size(), 1u);
  bool Changed = false;
  BasicBlock *PH = getOrCreatePreheader(CFG, LI.loops()[0], Changed);
  ASSERT_NE(PH, nullptr);
  // Whether found or created, the preheader's only successor is the header.
  EXPECT_EQ(PH->succs().size(), 1u);
  EXPECT_EQ(PH->succs()[0], CFG.block(LI.loops()[0].Header));
}

TEST(InstrInfo, AddrOfIsNotAUse) {
  auto M = compile(R"(
    int main() {
      int x = 1;
      int* p = &x;
      return *p;
    }
  )");
  IRFunction *F = M->findFunc("main");
  for (const auto &B : F->Blocks)
    for (const Instr &I : B->Insts)
      if (I.Op == Opcode::AddrOf) {
        EXPECT_TRUE(instrUses(I).empty());
      }
}

TEST(InstrInfo, ValueIndexCoversVarsAndTemps) {
  auto M = compile(R"(
    int main() {
      int a = 1;
      int b = a * 2 + 3;
      return b;
    }
  )");
  IRFunction *F = M->findFunc("main");
  ValueIndex VI(*F, *M->Info);
  EXPECT_GE(VI.size(), 2u);
  // Vars occupy the low indices.
  VarId V;
  EXPECT_TRUE(VI.isVarIndex(0, V));
}
