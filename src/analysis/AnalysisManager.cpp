//===- analysis/AnalysisManager.cpp - Cached function analyses ------------===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"

#include "support/Stats.h"
#include "support/Trace.h"

#include <string>
#include <tuple>

using namespace sldb;

namespace {

template <typename T> struct Tag {};

// The build function of each row: the result from the function, the
// program and the prerequisites' results, in the order the row lists
// them.

auto build(Tag<CFGContext>, IRFunction &F, const ProgramInfo &) {
  return std::make_unique<CFGContext>(F);
}
auto build(Tag<Dominators>, IRFunction &, const ProgramInfo &,
           CFGContext &CFG) {
  return std::make_unique<Dominators>(CFG);
}
auto build(Tag<PostDominators>, IRFunction &, const ProgramInfo &,
           CFGContext &CFG) {
  return std::make_unique<PostDominators>(CFG);
}
auto build(Tag<LoopInfo>, IRFunction &, const ProgramInfo &,
           CFGContext &CFG, Dominators &Dom) {
  return std::make_unique<LoopInfo>(CFG, Dom);
}
auto build(Tag<ValueIndex>, IRFunction &F, const ProgramInfo &Info) {
  return std::make_unique<ValueIndex>(F, Info);
}
auto build(Tag<Liveness>, IRFunction &, const ProgramInfo &Info,
           CFGContext &CFG, ValueIndex &VI, AliasInfo &AI) {
  return std::make_unique<Liveness>(CFG, VI, Info, AI);
}
auto build(Tag<ReachingDefs>, IRFunction &, const ProgramInfo &Info,
           CFGContext &CFG, ValueIndex &VI, AliasInfo &AI) {
  return std::make_unique<ReachingDefs>(CFG, VI, Info, AI);
}
auto build(Tag<DomFrontiers>, IRFunction &, const ProgramInfo &,
           CFGContext &CFG, Dominators &Dom) {
  return std::make_unique<DomFrontiers>(CFG, Dom);
}
auto build(Tag<SsaDefUse>, IRFunction &, const ProgramInfo &,
           CFGContext &CFG) {
  return std::make_unique<SsaDefUse>(CFG);
}
auto build(Tag<AliasInfo>, IRFunction &F, const ProgramInfo &Info) {
  return std::make_unique<AliasInfo>(F, Info);
}

constexpr unsigned AllAnalyses = (1u << NumAnalysisIDs) - 1;

/// The order results are destroyed in: every analysis before its
/// prerequisites, so no result outlives one it holds references into.
/// Each step takes the first remaining analysis that no remaining
/// analysis needs; a prerequisite cycle leaves the order short, which
/// the static_assert below rejects.
constexpr std::array<unsigned, NumAnalysisIDs> teardownOrder() {
  std::array<unsigned, NumAnalysisIDs> Order{};
  unsigned Left = AllAnalyses;
  for (unsigned &Next : Order) {
    unsigned Needed = 0;
    for (unsigned I = 0; I < NumAnalysisIDs; ++I)
      if ((Left >> I) & 1u)
        Needed |= AnalysisTable[I].Prereqs;
    Next = 0;
    while (Next < NumAnalysisIDs &&
           (!((Left >> Next) & 1u) || ((Needed >> Next) & 1u)))
      ++Next;
    if (Next == NumAnalysisIDs)
      return Order;
    Left &= ~(1u << Next);
  }
  return Order;
}
constexpr std::array<unsigned, NumAnalysisIDs> Teardown = teardownOrder();

constexpr bool tearsDependentsFirst() {
  unsigned Gone = 0;
  for (unsigned ID : Teardown) {
    if (ID >= NumAnalysisIDs || ((Gone >> ID) & 1u) ||
        (AnalysisTable[ID].Prereqs & Gone))
      return false;
    Gone |= 1u << ID;
  }
  return Gone == AllAnalyses;
}
static_assert(tearsDependentsFirst(),
              "every analysis must be torn down once, before each of its "
              "prerequisites");

void count(AnalysisID ID, bool Hit) {
  static StatCounter &Hits = Stats::counter("analysis.cache.hits");
  static StatCounter &Misses = Stats::counter("analysis.cache.misses");
  (Hit ? Hits : Misses).add();
  analysisCacheCounter(ID, Hit).add();
}

} // namespace

StatCounter &sldb::analysisCacheCounter(AnalysisID ID, bool Hit) {
  // Bound once: a lookup indexes the table and builds no name.
  static const auto Counters = [] {
    std::array<std::array<StatCounter *, 2>, NumAnalysisIDs> C{};
    for (unsigned I = 0; I < NumAnalysisIDs; ++I) {
      const std::string Base = std::string("analysis.") + AnalysisTable[I].Name;
      C[I] = {&Stats::counter(Base + ".misses"),
              &Stats::counter(Base + ".hits")};
    }
    return C;
  }();
  return *Counters[static_cast<unsigned>(ID)][Hit];
}

template <typename T> T &AnalysisManager::getResult(IRFunction &F) {
  constexpr AnalysisID ID = AnalysisRow<T>::ID;
  return [&]<typename... Ps>(AnalysisList<Ps...>) -> T & {
    // A braced list is evaluated left to right: the prerequisites are
    // fetched in row order.
    std::tuple<Ps &...> Prereqs{getResult<Ps>(F)...};
    auto &Slot = Entries[&F][static_cast<unsigned>(ID)];
    count(ID, Slot != nullptr);
    if (!Slot) {
      TraceSpan Span(analysisName(ID), "analysis");
      Span.arg("function", F.Name);
      std::unique_ptr<T> Result = std::apply(
          [&](Ps &...P) { return build(Tag<T>(), F, Info, P...); }, Prereqs);
      Slot = {Result.release(), {[](void *P) { delete static_cast<T *>(P); }}};
    }
    return *static_cast<T *>(Slot.get());
  }(typename AnalysisRow<T>::Prereqs());
}

#define SLDB_ANALYSIS_INSTANCE(ID, T, ...)                                    \
  template T &AnalysisManager::getResult<T>(IRFunction &);
SLDB_ANALYSES(SLDB_ANALYSIS_INSTANCE)
#undef SLDB_ANALYSIS_INSTANCE

void AnalysisManager::drop(FunctionEntry &E, unsigned Dead) {
  for (unsigned ID : Teardown)
    if ((Dead >> ID) & 1u)
      E[ID].reset();
}

AnalysisManager::~AnalysisManager() {
  for (auto &KV : Entries)
    drop(KV.second, AllAnalyses);
}

void AnalysisManager::invalidate(IRFunction &F, const PreservedAnalyses &PA) {
  if (PA.areAllPreserved())
    return;
  auto It = Entries.find(&F);
  if (It == Entries.end())
    return;
  // Seed with the abandoned set, then close over dependents: an analysis
  // whose prerequisite dies dies with it (its result holds references
  // into the prerequisite).
  unsigned Dead = 0;
  for (unsigned I = 0; I < NumAnalysisIDs; ++I)
    if (!PA.isPreserved(static_cast<AnalysisID>(I)))
      Dead |= 1u << I;
  for (bool Grew = true; Grew;) {
    Grew = false;
    for (unsigned I = 0; I < NumAnalysisIDs; ++I)
      if (!((Dead >> I) & 1u) && (AnalysisTable[I].Prereqs & Dead)) {
        Dead |= 1u << I;
        Grew = true;
      }
  }
  drop(It->second, Dead);
}
