//===- tests/analysis_manager_test.cpp -------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis manager contract: caching (same object back), explicit
/// invalidation with dependency closure, prerequisite materialization,
/// and — the property that actually keeps the refactor honest — that a
/// cached analysis surviving a pass boundary equals the one a fresh
/// computation would produce, checked after every (pass, function) step
/// of the full pipeline over a fuzz corpus.
///
//===----------------------------------------------------------------------===//

#include "analysis/AliasInfo.h"
#include "analysis/AnalysisManager.h"
#include "analysis/SsaDefUse.h"
#include "eval/Levels.h"
#include "fuzz/ProgramGen.h"
#include "ir/IRGen.h"
#include "opt/Pass.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

using namespace sldb;

namespace {

const char *SimpleLoop = R"(
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 10; i = i + 1) {
    if (i > 5) {
      s = s + i * 2;
    } else {
      s = s - i;
    }
  }
  print(s);
  return s;
}
)";

std::unique_ptr<IRModule> compile(const char *Src) {
  DiagnosticEngine Diags;
  auto M = compileToIR(Src, Diags);
  EXPECT_TRUE(M) << Diags.str();
  return M;
}

/// Reads one analysis's Stats hit or miss counter as a delta from the
/// moment of construction.
class CacheCount {
public:
  CacheCount(AnalysisID ID, bool Hit)
      : Counter(analysisCacheCounter(ID, Hit)), Start(Counter.value()) {}
  std::uint64_t delta() const { return Counter.value() - Start; }

private:
  const StatCounter &Counter;
  std::uint64_t Start;
};

TEST(AnalysisManager, CacheHitReturnsSameObject) {
  auto M = compile(SimpleLoop);
  AnalysisManager AM(*M->Info);
  IRFunction &F = *M->Funcs[0];
  CacheCount Misses(AnalysisID::CFG, false), Hits(AnalysisID::CFG, true);

  CFGContext &A = AM.getResult<CFGContext>(F);
  CFGContext &B = AM.getResult<CFGContext>(F);
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(Misses.delta(), 1u);
  EXPECT_EQ(Hits.delta(), 1u);
}

TEST(AnalysisManager, GetCachedNeverComputes) {
  auto M = compile(SimpleLoop);
  AnalysisManager AM(*M->Info);
  IRFunction &F = *M->Funcs[0];

  EXPECT_EQ(AM.getCached<CFGContext>(F), nullptr);
  AM.getResult<CFGContext>(F);
  EXPECT_NE(AM.getCached<CFGContext>(F), nullptr);
}

TEST(AnalysisManager, PrerequisitesMaterializeThroughTheCache) {
  auto M = compile(SimpleLoop);
  AnalysisManager AM(*M->Info);
  IRFunction &F = *M->Funcs[0];
  CacheCount CFGMisses(AnalysisID::CFG, false);

  // Liveness pulls in the CFG and the value index; loops pull in
  // dominators.
  AM.getResult<Liveness>(F);
  EXPECT_NE(AM.getCached<CFGContext>(F), nullptr);
  EXPECT_NE(AM.getCached<ValueIndex>(F), nullptr);
  AM.getResult<LoopInfo>(F);
  EXPECT_NE(AM.getCached<Dominators>(F), nullptr);

  // The prerequisite CFG is shared, not rebuilt: one miss only.
  EXPECT_EQ(CFGMisses.delta(), 1u);
}

TEST(AnalysisManager, PreserveAllKeepsEverything) {
  auto M = compile(SimpleLoop);
  AnalysisManager AM(*M->Info);
  IRFunction &F = *M->Funcs[0];

  CFGContext *CFG = &AM.getResult<CFGContext>(F);
  Liveness *Live = &AM.getResult<Liveness>(F);
  AM.invalidate(F, PreservedAnalyses::all());
  EXPECT_EQ(AM.getCached<CFGContext>(F), CFG);
  EXPECT_EQ(AM.getCached<Liveness>(F), Live);
}

TEST(AnalysisManager, CfgShapePreservesShapeDropsInstructionLevel) {
  auto M = compile(SimpleLoop);
  AnalysisManager AM(*M->Info);
  IRFunction &F = *M->Funcs[0];

  CFGContext *CFG = &AM.getResult<CFGContext>(F);
  Dominators *Dom = &AM.getResult<Dominators>(F);
  LoopInfo *LI = &AM.getResult<LoopInfo>(F);
  AM.getResult<Liveness>(F);
  AM.getResult<ReachingDefs>(F);

  AM.invalidate(F, PreservedAnalyses::cfgShape());
  EXPECT_EQ(AM.getCached<CFGContext>(F), CFG);
  EXPECT_EQ(AM.getCached<Dominators>(F), Dom);
  EXPECT_EQ(AM.getCached<LoopInfo>(F), LI);
  EXPECT_EQ(AM.getCached<ValueIndex>(F), nullptr);
  EXPECT_EQ(AM.getCached<Liveness>(F), nullptr);
  EXPECT_EQ(AM.getCached<ReachingDefs>(F), nullptr);
}

/// getCached of every analysis, indexed by AnalysisID.
std::vector<const void *> cachedByID(const AnalysisManager &AM,
                                     const IRFunction &F) {
  return {AM.getCached<CFGContext>(F),   AM.getCached<Dominators>(F),
          AM.getCached<PostDominators>(F), AM.getCached<LoopInfo>(F),
          AM.getCached<ValueIndex>(F),   AM.getCached<Liveness>(F),
          AM.getCached<ReachingDefs>(F), AM.getCached<DomFrontiers>(F),
          AM.getCached<SsaDefUse>(F),    AM.getCached<AliasInfo>(F)};
}

TEST(AnalysisManager, InvalidationClosesOverDependencies) {
  auto M = compile(SimpleLoop);
  IRFunction &F = *M->Funcs[0];

  // Each analysis, and the analyses whose results are built from it
  // (directly or through another): abandoning the first must drop
  // exactly itself and these, even though the pass claims them
  // preserved, and keep every other result.
  using ID = AnalysisID;
  const std::pair<ID, std::vector<ID>> Dependents[] = {
      {ID::CFG,
       {ID::Dominators, ID::PostDominators, ID::Loops, ID::Liveness,
        ID::ReachingDefs, ID::DomFrontiers, ID::SsaDefUse}},
      {ID::Dominators, {ID::Loops, ID::DomFrontiers}},
      {ID::PostDominators, {}},
      {ID::Loops, {}},
      {ID::Values, {ID::Liveness, ID::ReachingDefs}},
      {ID::Liveness, {}},
      {ID::ReachingDefs, {}},
      {ID::DomFrontiers, {}},
      {ID::SsaDefUse, {}},
      {ID::Alias, {ID::Liveness, ID::ReachingDefs}},
  };
  ASSERT_EQ(std::size(Dependents), NumAnalysisIDs);
  for (const auto &[Abandoned, Deps] : Dependents) {
    AnalysisManager AM(*M->Info);
    AM.getResult<Liveness>(F);
    AM.getResult<ReachingDefs>(F);
    AM.getResult<LoopInfo>(F);
    AM.getResult<PostDominators>(F);
    AM.getResult<DomFrontiers>(F);
    AM.getResult<SsaDefUse>(F);
    const std::vector<const void *> Before = cachedByID(AM, F);
    for (unsigned I = 0; I < NumAnalysisIDs; ++I)
      ASSERT_NE(Before[I], nullptr) << analysisName(static_cast<ID>(I));

    PreservedAnalyses PA = PreservedAnalyses::all();
    PA.abandon(Abandoned);
    AM.invalidate(F, PA);
    const std::vector<const void *> After = cachedByID(AM, F);
    for (unsigned I = 0; I < NumAnalysisIDs; ++I) {
      const ID Other = static_cast<ID>(I);
      const bool Dropped =
          Other == Abandoned ||
          std::find(Deps.begin(), Deps.end(), Other) != Deps.end();
      EXPECT_EQ(After[I], Dropped ? nullptr : Before[I])
          << "abandoning " << analysisName(Abandoned) << " must "
          << (Dropped ? "drop " : "keep ") << analysisName(Other);
    }
  }
}

TEST(AnalysisManager, InvalidationIsPerFunction) {
  auto M = compile(R"(
int helper(int x) { return x * 2; }
int main() { print(helper(21)); return 0; }
)");
  ASSERT_GE(M->Funcs.size(), 2u);
  AnalysisManager AM(*M->Info);
  IRFunction &F0 = *M->Funcs[0];
  IRFunction &F1 = *M->Funcs[1];

  CFGContext *C0 = &AM.getResult<CFGContext>(F0);
  CFGContext *C1 = &AM.getResult<CFGContext>(F1);
  AM.invalidateAll(F0);
  EXPECT_EQ(AM.getCached<CFGContext>(F0), nullptr);
  EXPECT_EQ(AM.getCached<CFGContext>(F1), C1);
  (void)C0;
}

//===----------------------------------------------------------------------===//
// Property: after every pass, every surviving cached analysis equals a
// fresh computation.
//===----------------------------------------------------------------------===//

void expectCFGEqual(const CFGContext &Cached, const CFGContext &Fresh,
                    const char *PassName) {
  ASSERT_EQ(Cached.numBlocks(), Fresh.numBlocks()) << PassName;
  for (unsigned B = 0; B < Cached.numBlocks(); ++B) {
    EXPECT_EQ(Cached.block(B), Fresh.block(B)) << PassName << " block " << B;
    EXPECT_EQ(Cached.preds(B), Fresh.preds(B)) << PassName << " block " << B;
    EXPECT_EQ(Cached.succs(B), Fresh.succs(B)) << PassName << " block " << B;
  }
  EXPECT_EQ(Cached.exits(), Fresh.exits()) << PassName;
}

/// Compares every cached analysis of \p F against one computed from
/// scratch.  A stale survivor here means a pass lied about what it
/// preserved (or the invalidation closure has a hole).
void checkCachedAgainstFresh(IRFunction &F, IRModule &M, AnalysisManager &AM,
                             const char *PassName) {
  const CFGContext *CFG = AM.getCached<CFGContext>(F);
  if (!CFG)
    return; // Nothing else can be cached without the CFG.
  CFGContext Fresh(F);
  expectCFGEqual(*CFG, Fresh, PassName);

  if (const Dominators *Dom = AM.getCached<Dominators>(F)) {
    Dominators FreshDom(Fresh);
    for (unsigned B = 0; B < Fresh.numBlocks(); ++B)
      EXPECT_TRUE(Dom->domSet(B) == FreshDom.domSet(B))
          << PassName << " dominators of block " << B;
  }
  if (const PostDominators *PDom = AM.getCached<PostDominators>(F)) {
    PostDominators FreshPDom(Fresh);
    for (unsigned B = 0; B < Fresh.numBlocks(); ++B)
      EXPECT_TRUE(PDom->postDomSet(B) == FreshPDom.postDomSet(B))
          << PassName << " post-dominators of block " << B;
  }
  if (const LoopInfo *LI = AM.getCached<LoopInfo>(F)) {
    Dominators FreshDom(Fresh);
    LoopInfo FreshLI(Fresh, FreshDom);
    ASSERT_EQ(LI->loops().size(), FreshLI.loops().size()) << PassName;
    for (unsigned L = 0; L < LI->loops().size(); ++L) {
      EXPECT_EQ(LI->loops()[L].Header, FreshLI.loops()[L].Header)
          << PassName;
      EXPECT_TRUE(LI->loops()[L].Blocks == FreshLI.loops()[L].Blocks)
          << PassName;
      EXPECT_EQ(LI->loops()[L].Latches, FreshLI.loops()[L].Latches)
          << PassName;
      EXPECT_EQ(LI->loops()[L].ExitBlocks, FreshLI.loops()[L].ExitBlocks)
          << PassName;
    }
  }
  const ValueIndex *VI = AM.getCached<ValueIndex>(F);
  if (VI) {
    ValueIndex FreshVI(F, *M.Info);
    ASSERT_EQ(VI->size(), FreshVI.size()) << PassName;
    ASSERT_EQ(VI->trackedVars(), FreshVI.trackedVars()) << PassName;
    for (VarId V : VI->trackedVars())
      EXPECT_EQ(VI->varIndex(V), FreshVI.varIndex(V)) << PassName;
  }
  if (const Liveness *Live = AM.getCached<Liveness>(F)) {
    ASSERT_NE(VI, nullptr) << PassName; // Liveness keeps VI alive.
    AliasInfo FreshAI(F, *M.Info);
    Liveness FreshLive(Fresh, *VI, *M.Info, FreshAI);
    for (unsigned B = 0; B < Fresh.numBlocks(); ++B) {
      EXPECT_TRUE(Live->liveIn(B) == FreshLive.liveIn(B))
          << PassName << " live-in of block " << B;
      EXPECT_TRUE(Live->liveOut(B) == FreshLive.liveOut(B))
          << PassName << " live-out of block " << B;
    }
  }
  if (const ReachingDefs *RD = AM.getCached<ReachingDefs>(F)) {
    ASSERT_NE(VI, nullptr) << PassName;
    AliasInfo FreshAI(F, *M.Info);
    ReachingDefs FreshRD(Fresh, *VI, *M.Info, FreshAI);
    ASSERT_EQ(RD->numDefs(), FreshRD.numDefs()) << PassName;
    for (unsigned B = 0; B < Fresh.numBlocks(); ++B)
      EXPECT_TRUE(RD->reachIn(B) == FreshRD.reachIn(B))
          << PassName << " reach-in of block " << B;
  }
  if (const AliasInfo *AI = AM.getCached<AliasInfo>(F)) {
    AliasInfo FreshAI(F, *M.Info);
    const VarId NumVars = static_cast<VarId>(M.Info->Vars.size());
    auto SamePT = [&](const Value &V) {
      const PointsToSet *A = AI->pointsTo(V), *B = FreshAI.pointsTo(V);
      ASSERT_EQ(A == nullptr, B == nullptr) << PassName;
      if (A) {
        EXPECT_EQ(A->Unknown, B->Unknown) << PassName;
        EXPECT_EQ(A->Roots, B->Roots) << PassName;
      }
    };
    for (VarId V = 0; V < NumVars; ++V) {
      EXPECT_EQ(AI->addressTaken(V), FreshAI.addressTaken(V))
          << PassName << " var " << V;
      EXPECT_EQ(AI->escaped(V), FreshAI.escaped(V))
          << PassName << " var " << V;
      SamePT(Value::var(V, IRType::Ptr));
    }
    for (TempId T = 0; T <= F.NextTemp; ++T)
      SamePT(Value::temp(T, IRType::Ptr));
    for (const BasicBlock *B : F.Blocks)
      for (const Instr &I : B->Insts)
        for (VarId V = 0; V < NumVars; ++V) {
          EXPECT_EQ(AI->mayClobber(I, V), FreshAI.mayClobber(I, V))
              << PassName << " var " << V;
          EXPECT_EQ(AI->mayRead(I, V), FreshAI.mayRead(I, V))
              << PassName << " var " << V;
        }
  }
  if (const SsaDefUse *DU = AM.getCached<SsaDefUse>(F)) {
    SsaDefUse FreshDU(Fresh);
    for (TempId T = 0; T <= F.NextTemp; ++T) {
      ASSERT_EQ(DU->numDefs(T), FreshDU.numDefs(T)) << PassName << " t" << T;
      EXPECT_EQ(DU->numUses(T), FreshDU.numUses(T)) << PassName << " t" << T;
      if (DU->singleDef(T)) {
        EXPECT_EQ(DU->defOf(T), FreshDU.defOf(T)) << PassName << " t" << T;
        EXPECT_EQ(DU->defBlockOf(T), FreshDU.defBlockOf(T))
            << PassName << " t" << T;
      }
    }
    for (const BasicBlock *B : F.Blocks)
      for (auto It = B->Insts.begin(); It != B->Insts.end(); ++It) {
        EXPECT_EQ(DU->blockOfInstr(It.id()), FreshDU.blockOfInstr(It.id()))
            << PassName << " instr " << It.id();
        EXPECT_EQ(DU->ordinalOf(It.id()), FreshDU.ordinalOf(It.id()))
            << PassName << " instr " << It.id();
      }
  }
}

TEST(AnalysisManagerProperty, CachedEqualsFreshAfterEveryPass) {
  for (unsigned Seed = 0; Seed < 12; ++Seed) {
    GenOptions G;
    std::string Src = generateProgram(3000 + Seed, G);
    DiagnosticEngine Diags;
    auto M = compileToIR(Src, Diags);
    ASSERT_TRUE(M) << "seed " << 3000 + Seed << ": " << Diags.str();

    PipelineConfig Config;
    Config.AfterPass = checkCachedAgainstFresh;
    runPipelineEx(*M, OptOptions::all(), Config);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "stale cached analysis for fuzz seed "
                    << 3000 + Seed;
      return;
    }
  }
}

TEST(AnalysisManagerProperty, CachedEqualsFreshOnAliasAndSsaPipelines) {
  // The aliasing grammar gives AliasInfo pointers to track, and the SSA
  // tier caches SsaDefUse across its passes.
  const LevelSpec *O2Ssa = findLevel("O2ssa");
  ASSERT_NE(O2Ssa, nullptr);
  for (unsigned Seed = 0; Seed < 12; ++Seed) {
    GenOptions G;
    G.Alias = Seed % 2 == 0;
    std::string Src = generateProgram(3000 + Seed, G);
    for (const OptOptions &Opts : {OptOptions::all(), O2Ssa->Opts}) {
      DiagnosticEngine Diags;
      auto M = compileToIR(Src, Diags);
      ASSERT_TRUE(M) << "seed " << 3000 + Seed << ": " << Diags.str();
      PipelineConfig Config;
      Config.AfterPass = checkCachedAgainstFresh;
      runPipelineEx(*M, Opts, Config);
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "stale cached analysis for fuzz seed "
                      << 3000 + Seed << (G.Alias ? " (alias)" : "");
        return;
      }
    }
  }
}

} // namespace
