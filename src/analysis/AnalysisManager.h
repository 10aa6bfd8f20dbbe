//===- analysis/AnalysisManager.h - Cached function analyses ---*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A typed per-function analysis cache with explicit, dependency-aware
/// invalidation — the substrate the paper's thesis needs: debug
/// classification is "ordinary bit-vector data-flow over the compiler's
/// own IR", so the IR analyses must be computed once and shared, not
/// rebuilt by every consumer.
///
/// Passes request results with `AM.getResult<Dominators>(F)` and report
/// what they kept intact by returning a PreservedAnalyses set.  Each
/// analysis is one row of SLDB_ANALYSES, served by the one generic
/// getResult / getCached / invalidate.  A row states the analysis's
/// dependence level: *CFG-shape* analyses (dominators, loops) survive
/// instruction rewrites that leave the block graph alone, while
/// *instruction-level* analyses (liveness, reaching definitions) do not.
/// It also lists the analysis's prerequisites, which getResult fetches
/// before building it and over which invalidation is transitively closed,
/// so dropping the CFG context drops everything built on it.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_ANALYSIS_ANALYSISMANAGER_H
#define SLDB_ANALYSIS_ANALYSISMANAGER_H

#include "analysis/AliasInfo.h"
#include "analysis/CFGContext.h"
#include "analysis/DomFrontiers.h"
#include "analysis/Dominators.h"
#include "analysis/InstrInfo.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "analysis/ReachingDefs.h"
#include "analysis/SsaDefUse.h"

#include <array>
#include <iterator>
#include <memory>
#include <unordered_map>

namespace sldb {

class StatCounter;

/// The cached analyses, one row each, in AnalysisID order:
///
///   X(ID, result type, name, dependence, prerequisites...)
///
/// The name labels the analysis's trace span and its Stats counters.
/// The dependence is CFGShape when the result survives every rewrite
/// that keeps the block graph, else Instruction.  The prerequisites are
/// the analyses whose results it is built from and holds references
/// into: getResult fetches them through the cache, in the listed order,
/// before its own lookup, and dropping one drops the analysis too.  Each
/// result type also has a build function in AnalysisManager.cpp.
/// tools/check_no_direct_analyses.sh reads the result types from here.
#define SLDB_ANALYSES(X)                                                      \
  X(CFG, CFGContext, "cfg", CFGShape)                                         \
  X(Dominators, Dominators, "dominators", CFGShape, CFGContext)               \
  X(PostDominators, PostDominators, "post-dominators", CFGShape, CFGContext)  \
  X(Loops, LoopInfo, "loops", CFGShape, CFGContext, Dominators)               \
  X(Values, ValueIndex, "value-index", Instruction)                           \
  X(Liveness, Liveness, "liveness", Instruction, CFGContext, ValueIndex,      \
    AliasInfo)                                                                \
  X(ReachingDefs, ReachingDefs, "reaching-defs", Instruction, CFGContext,     \
    ValueIndex, AliasInfo)                                                    \
  X(DomFrontiers, DomFrontiers, "dom-frontiers", CFGShape, CFGContext,        \
    Dominators)                                                               \
  X(SsaDefUse, SsaDefUse, "ssa-def-use", Instruction, CFGContext)             \
  X(Alias, AliasInfo, "alias", Instruction)

/// Dense identifiers of the cached analyses, in row order.
enum class AnalysisID : unsigned {
#define SLDB_ANALYSIS_ID(ID, ...) ID,
  SLDB_ANALYSES(SLDB_ANALYSIS_ID)
#undef SLDB_ANALYSIS_ID
};

/// What an analysis result depends on; decides which mutations kill it.
enum class AnalysisDependence {
  CFGShape,   ///< Valid while the block graph is unchanged.
  Instruction ///< Killed by any instruction-level rewrite.
};

/// A list of analysis result types.
template <typename... Ts> struct AnalysisList {};

/// The row of the analysis whose result type is \p T: its ID and its
/// prerequisites' result types.
template <typename T> struct AnalysisRow;
#define SLDB_ANALYSIS_ROW(ID_, T, Name, Dep, ...)                             \
  template <> struct AnalysisRow<T> {                                         \
    static constexpr AnalysisID ID = AnalysisID::ID_;                         \
    using Prereqs = AnalysisList<__VA_ARGS__>;                                \
  };
SLDB_ANALYSES(SLDB_ANALYSIS_ROW)
#undef SLDB_ANALYSIS_ROW

/// The bit mask over AnalysisID of the analyses computing \p Ts.
template <typename... Ts> constexpr unsigned analysisMask(AnalysisList<Ts...>) {
  return (0u | ... | (1u << static_cast<unsigned>(AnalysisRow<Ts>::ID)));
}

/// The rows by AnalysisID.
struct AnalysisTableRow {
  const char *Name;
  AnalysisDependence Dependence;
  unsigned Prereqs; ///< Direct prerequisites, as an analysisMask.
};
inline constexpr AnalysisTableRow AnalysisTable[] = {
#define SLDB_ANALYSIS_TABLE_ROW(ID, T, Name, Dep, ...)                        \
  {Name, AnalysisDependence::Dep, analysisMask(AnalysisRow<T>::Prereqs())},
    SLDB_ANALYSES(SLDB_ANALYSIS_TABLE_ROW)
#undef SLDB_ANALYSIS_TABLE_ROW
};
inline constexpr unsigned NumAnalysisIDs = std::size(AnalysisTable);

inline const char *analysisName(AnalysisID ID) {
  return AnalysisTable[static_cast<unsigned>(ID)].Name;
}

/// The process-wide Stats counter of \p ID's cache hits
/// (`analysis.<name>.hits`) or misses (`analysis.<name>.misses`).  Every
/// lookup bumps one of them and one of the totals
/// `analysis.cache.hits` / `analysis.cache.misses`.
StatCounter &analysisCacheCounter(AnalysisID ID, bool Hit);

/// The set of analyses a pass left intact, returned from Pass::run.
/// A pass that mutated nothing returns all(); a pass that restructured
/// the CFG returns none(); a pass that only rewrote instructions in
/// place returns cfgShape().
class PreservedAnalyses {
public:
  static PreservedAnalyses all() {
    PreservedAnalyses PA;
    PA.Mask = (1u << NumAnalysisIDs) - 1;
    return PA;
  }
  static PreservedAnalyses none() { return PreservedAnalyses(); }

  /// Preserves exactly the CFG-shape analyses (CFG, dominators,
  /// post-dominators, loops, dominance frontiers); instruction-level
  /// results are dropped.
  static PreservedAnalyses cfgShape() {
    PreservedAnalyses PA;
    for (unsigned I = 0; I < NumAnalysisIDs; ++I)
      if (AnalysisTable[I].Dependence == AnalysisDependence::CFGShape)
        PA.Mask |= 1u << I;
    return PA;
  }

  PreservedAnalyses &preserve(AnalysisID ID) {
    Mask |= 1u << static_cast<unsigned>(ID);
    return *this;
  }
  PreservedAnalyses &abandon(AnalysisID ID) {
    Mask &= ~(1u << static_cast<unsigned>(ID));
    return *this;
  }

  bool isPreserved(AnalysisID ID) const {
    return (Mask >> static_cast<unsigned>(ID)) & 1u;
  }
  bool areAllPreserved() const {
    return Mask == ((1u << NumAnalysisIDs) - 1);
  }

  /// Meet with another set (used when a pass aggregates sub-steps).
  void intersect(const PreservedAnalyses &O) { Mask &= O.Mask; }

private:
  unsigned Mask = 0;
};

/// Per-function cache of analysis results.  Results are owned by the
/// manager; references handed out stay valid until the analysis is
/// invalidated.  Prerequisites are built through the cache, so e.g.
/// getResult<Liveness> first materializes (or reuses) the CFGContext,
/// ValueIndex and AliasInfo it references.
class AnalysisManager {
public:
  explicit AnalysisManager(const ProgramInfo &Info) : Info(Info) {}
  ~AnalysisManager();

  AnalysisManager(const AnalysisManager &) = delete;
  AnalysisManager &operator=(const AnalysisManager &) = delete;

  /// Returns the cached result for \p F, computing it on a miss.  The
  /// prerequisites are fetched, and counted, first, on a hit as on a
  /// miss.  Defined for every row's result type.
  template <typename T> T &getResult(IRFunction &F);

  /// Returns the cached result if present, else null (never computes).
  template <typename T> const T *getCached(const IRFunction &F) const {
    auto It = Entries.find(&F);
    if (It == Entries.end())
      return nullptr;
    return static_cast<const T *>(
        It->second[static_cast<unsigned>(AnalysisRow<T>::ID)].get());
  }

  /// Drops every result for \p F not preserved by \p PA, transitively
  /// closing over the prerequisites (dropping the CFG drops all
  /// dependents; dropping ValueIndex drops liveness/reaching defs;
  /// dropping dominators drops loops).
  void invalidate(IRFunction &F, const PreservedAnalyses &PA);

  /// Drops every result for \p F.
  void invalidateAll(IRFunction &F) {
    invalidate(F, PreservedAnalyses::none());
  }

private:
  /// Deletes a cached result as its own type (the result types share no
  /// base class).
  struct ResultDeleter {
    void (*Delete)(void *) = nullptr;
    void operator()(void *P) const { Delete(P); }
  };
  /// One function's results, indexed by AnalysisID; the slot of T's row
  /// only ever holds a T.
  using FunctionEntry =
      std::array<std::unique_ptr<void, ResultDeleter>, NumAnalysisIDs>;

  /// Destroys the results in the \p Dead mask, each before its
  /// prerequisites.
  static void drop(FunctionEntry &E, unsigned Dead);

  const ProgramInfo &Info;
  std::unordered_map<const IRFunction *, FunctionEntry> Entries;
};

} // namespace sldb

#endif // SLDB_ANALYSIS_ANALYSISMANAGER_H
