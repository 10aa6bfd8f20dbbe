//===- core/Classifier.h - Endangered-variable classification ---*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution: given a breakpoint address and a
/// variable, decide whether the variable is *uninitialized*, *nonresident*,
/// *noncurrent*, *suspect*, or *current* (Figure 1), and when possible
/// *recover* the expected value of an endangered variable from a
/// temporary/constant (paper §2.5).
///
/// The decision rests on four forward bit-vector problems over the final
/// machine code, each rule stated once, as the decisions each instruction
/// makes, in one log over one fact universe (codegen/MachineFlow.h); the
/// log is solved once per meet (union = "along some path", intersection
/// = "along all paths"):
///
///  * initialization reach (simple reaching of any definition),
///  * hoist reach (Definition 1, Lemmas 1-3): generated by hoisted
///    assignment instances, killed by the avail markers of the same
///    assignment-expression key and by real assignments to the variable,
///  * dead reach (Definition 2, Lemmas 4-6): generated by dead markers,
///    killed by real assignments to the variable (and by avail markers,
///    whose point guarantees actual == expected),
///  * recovery taint (§2.5), one fact per frame or global recovery that
///    is not an IV relation: set by a possible write of its slot or
///    global, reset by its marker; the recovery is valid where the fact
///    does not hold on any path.
///
/// The two undefended classifier faults of support/FaultInjector.h are
/// read once, when the log is built.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_CORE_CLASSIFIER_H
#define SLDB_CORE_CLASSIFIER_H

#include "codegen/MachineFlow.h"

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sldb {

/// The classification lattice of Figure 1.
enum class VarClass : std::uint8_t {
  Uninitialized,
  Nonresident,
  Noncurrent,
  Suspect,
  Current
};

const char *varClassName(VarClass C);

/// Why a variable is endangered, for the debugger's warning text.
enum class EndangerCause : std::uint8_t {
  None,
  Premature,      ///< A hoisted assignment already executed (Lemma 2).
  MaybePremature, ///< ... on some paths only (Lemma 3).
  Stale,          ///< A dead assignment was eliminated (Lemma 5).
  MaybeStale      ///< ... on some paths only (Lemma 6).
};

/// Full classification of one variable at one breakpoint.
struct Classification {
  VarClass Kind = VarClass::Current;
  EndangerCause Cause = EndangerCause::None;

  /// Source statement of the assignment responsible (the prematurely
  /// executed or eliminated one), if known.
  StmtId CulpritStmt = InvalidStmt;

  /// Valid recovery of the expected value, when the variable is
  /// endangered by dead-code elimination but the eliminated assignment's
  /// value survives elsewhere (paper §2.5).  The debugger can then show
  /// the *expected* value despite the endangerment.
  bool Recoverable = false;
  MRecovery Recovery;

  /// The verdict was produced by the degraded (fail-safe) path because
  /// the annotation verifier found the variable's debug bookkeeping
  /// damaged.  Degraded verdicts are conservative by construction: never
  /// Current, never Recoverable (DESIGN.md "Failure model").
  bool Degraded = false;
};

const char *endangerCauseName(EndangerCause C);

/// Human-readable warning for the variable \p Name under classification
/// \p C, in source terms (paper §2.2: "the debugger can display the
/// actual value of x and warn the user that this value is the value
/// assigned by the source-level assignment E2, which has executed
/// prematurely").  Empty exactly when the value is shown without one
/// (Figure 1: current and not degraded).
std::string warningText(const Classification &C, std::string_view Name);

/// Provenance record of one classification query: everything classify()
/// consulted on the way to its verdict, in decision order (Figure 1).
/// Filled by the *same* code path that produces the verdict — explain
/// mode observes the decision, it never re-derives it — so an
/// explanation can never disagree with the classification it explains
/// (tests/trace_invariance_test.cpp holds classify to this).
struct Explanation {
  VarId V = InvalidVar;
  std::uint32_t Addr = 0;
  Classification Result;

  /// The degraded (fail-safe) path answered; Findings lists the
  /// verifier findings that implicated this variable.
  bool DegradedPath = false;
  std::vector<AnnotationFinding> Findings;

  /// Step 1 — initialization reach.
  bool GlobalAssumedInit = false; ///< Globals skip the init check.
  bool InitTracked = false;       ///< The function tracks the variable.
  bool InitReached = false;       ///< Some definition reaches Addr.

  /// Step 4 — hoist-reach path facts, one per hoist key assigning V.
  struct HoistFact {
    unsigned Key = 0;
    StmtId Stmt = InvalidStmt;
    std::string Expr; ///< Rendered key, e.g. "x = a * b".
    bool SomePath = false;
    bool AllPath = false;
  };
  std::vector<HoistFact> Hoists;

  /// Steps 2/5 — dead-marker certificates, one per dead marker of V.
  struct DeadFact {
    unsigned Marker = 0;
    StmtId Stmt = InvalidStmt;
    std::uint32_t MarkerAddr = 0;
    bool SomePath = false;
    bool AllPath = false;
    std::string Recovery; ///< Rendered recovery source; empty = none.
    bool RecoveryValidHere = false;
  };
  std::vector<DeadFact> Deads;

  /// Step 2 — §2.5 recovery decision.
  bool RecoveryEnabled = false;
  bool RecoveryAttempted = false; ///< Unique all-paths marker existed.
  std::string RecoveryNote;      ///< Why recovery was not used, if known.

  /// Step 3 — residence.
  bool ResidenceConsulted = false;
  bool Resident = false;
  std::string Storage; ///< Rendered storage home, e.g. "register r3".

  /// The Figure-1 rule that produced the verdict, e.g.
  /// "hoist-all (Lemma 2)".
  std::string Rule;
};

/// Per-function classification engine.  Construction solves the data
/// flow; classify() then resolves each query from a per-address state
/// cache (the state at an address is independent of the queried
/// variable, so the first query at an address pays for every later one —
/// a breakpoint sweep over all scope variables computes each state once
/// per session instead of once per query).
class Classifier {
public:
  /// \p EnableRecovery toggles §2.5 value recovery; disabling it is used
  /// by the ablation benchmarks to show how much endangerment recovery
  /// absorbs.
  ///
  /// Construction re-verifies the function's debug bookkeeping (see
  /// core/AnnotationVerifier.h) and merges any findings the pipeline
  /// already recorded (MachineFunction::IntegrityFindings).  Variables
  /// implicated by a finding — or all of them, for unattributable
  /// damage — enter *degraded mode*: classify() answers from the storage
  /// table alone (Uninitialized / Suspect / Nonresident), never Current
  /// and never Recoverable, instead of trusting corrupt annotations.
  Classifier(const MachineFunction &MF, const ProgramInfo &Info,
             bool EnableRecovery = true);

  /// Classifies variable \p V at function-local address \p Addr
  /// (execution stopped *before* the instruction at Addr).  When \p E is
  /// non-null the decision's provenance is recorded into it as a side
  /// effect; the verdict is identical either way.
  Classification classify(std::uint32_t Addr, VarId V,
                          Explanation *E = nullptr) const;

  /// classify() with provenance: returns the full explanation (its
  /// Result field holds the verdict).
  Explanation explain(std::uint32_t Addr, VarId V) const;

  /// Batched sweep: classifies every variable of \p Vs at \p Addr.  The
  /// per-address dataflow solution is computed once and shared across
  /// the whole sweep (the service's classify-all verb and breakpoint
  /// scope reports pay one transfer walk, not one per variable).
  /// Verdict-identical to calling classify() per variable.
  std::vector<Classification> classifyAll(std::uint32_t Addr,
                                          const std::vector<VarId> &Vs) const;

  /// Renders an explanation as indented human-readable text (the format
  /// pinned by tests/golden/explain/) or as a machine-readable JSON
  /// object (one line, no trailing newline).
  std::string renderExplainText(const Explanation &E) const;
  std::string renderExplainJson(const Explanation &E) const;

  const MachineFunction &function() const { return MF; }

  /// Integrity findings that forced degradation: the pipeline's recorded
  /// findings plus this constructor's own re-verification of the machine
  /// annotations.  Empty when the bookkeeping is intact.
  const std::vector<AnnotationFinding> &annotationFindings() const {
    return Findings;
  }

  /// True when \p V answers through the degraded (fail-safe) path.
  bool degraded(VarId V) const { return DegradeAll || row(V).Degraded; }

  /// \p V's entry in the function's storage table; null when it has none.
  const VarStorage *storage(VarId V) const { return row(V).Storage; }

  /// Forces every variable into degraded mode (conservativeness property
  /// tests compare degraded against fault-free verdicts on the same
  /// intact module).
  void degradeAllVariables() { DegradeAll = true; }

private:
  /// Both solutions at one address (stop-before semantics).
  struct AddrState {
    BitVector Some; ///< Union meet: the fact holds along some path.
    BitVector All;  ///< Intersection meet: along all paths.
    bool Valid = false;
  };
  const AddrState &stateAt(std::uint32_t Addr) const;

  /// Whether marker \p M's recovery holds the expected value at \p Addr,
  /// whose state is \p AS.
  bool recoveryValid(unsigned M, std::uint32_t Addr,
                     const AddrState &AS) const;

  const MachineFunction &MF;
  const ProgramInfo &Info;
  bool EnableRecovery;
  std::uint32_t Total; ///< Instruction count = the past-the-end address.

  // The fact universe, in order: tracked variables (initialization
  // reach), hoist keys (hoist reach), dead markers (dead reach), then the
  // taint facts of the recoveries that can be tainted.
  unsigned FirstKey = 0;
  unsigned FirstMarker = 0;
  std::vector<StmtId> KeyStmt; ///< Culprit stmt per key.
  struct MarkerInfo {
    VarId V;
    StmtId Stmt;
    std::uint32_t Addr; ///< Identity (var/stmt pairs may duplicate).
    MRecovery Recovery;
    unsigned Taint; ///< Taint fact; ~0u when nothing can taint it.
    /// In-register recoveries: the allocator's validity row, if any.
    const BitVector *ValidAt;
  };
  std::vector<MarkerInfo> Markers;
  MachineFlow SomeFlow, AllFlow;

  /// What the classifier knows of one variable, built once.  Its hoist
  /// keys and dead markers are the ranges [KeysBegin, KeysEnd) of
  /// VarKeys and [MarkersBegin, MarkersEnd) of VarMarkers, in index
  /// order (the "last matching key/marker" rules depend on it).
  struct VarRow {
    unsigned Init = ~0u;   ///< Initialization fact; ~0u = untracked.
    bool Degraded = false; ///< Implicated by a verifier finding.
    const VarStorage *Storage = nullptr; ///< MF.Storage entry.
    const BitVector *Resident = nullptr; ///< MF.ResidentAt row.
    std::uint32_t KeysBegin = 0, KeysEnd = 0;
    std::uint32_t MarkersBegin = 0, MarkersEnd = 0;
  };
  /// Rows for the VarIds [VarBase, VarBase + Rows.size()): the ids this
  /// function's tables mention, so the table never spans the module.
  /// Every other id, including annotation-supplied ids past the
  /// program's variables, reads NoRow.
  VarId VarBase = 0;
  std::vector<VarRow> Rows;
  VarRow NoRow;
  std::vector<unsigned> VarKeys, VarMarkers;

  const VarRow &row(VarId V) const {
    return V - VarBase < Rows.size() ? Rows[V - VarBase] : NoRow;
  }
  std::span<const unsigned> keysOf(VarId V) const {
    const VarRow &R = row(V);
    return {VarKeys.data() + R.KeysBegin, R.KeysEnd - R.KeysBegin};
  }
  std::span<const unsigned> markersOf(VarId V) const {
    const VarRow &R = row(V);
    return {VarMarkers.data() + R.MarkersBegin,
            R.MarkersEnd - R.MarkersBegin};
  }

  /// Degraded-mode state: verifier findings (DegradeAll when damage is
  /// unattributable; VarRow::Degraded marks the variables they name).
  std::vector<AnnotationFinding> Findings;
  bool DegradeAll = false;

  /// Degraded fail-safe path: answers from initialization reach and the
  /// storage table only (the parts a corrupt annotation cannot make
  /// unsound in the Current direction).
  Classification classifyDegraded(std::uint32_t Addr, VarId V,
                                  Explanation *E) const;

  /// Rendering helpers for explain mode (pure; read-only).
  std::string renderHoistKeyExpr(unsigned Key) const;
  std::string renderRecovery(const MRecovery &R) const;
  std::string renderStorage(VarId V) const;

  /// Lazily-filled per-address query cache, indexed by function-local
  /// address.
  mutable std::vector<AddrState> Cache;
};

} // namespace sldb

#endif // SLDB_CORE_CLASSIFIER_H
