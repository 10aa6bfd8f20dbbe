//===- core/Classifier.cpp ------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Classifier.h"

#include "core/AnnotationVerifier.h"
#include "ir/IRPrinter.h"
#include "support/Casting.h"
#include "support/FaultInjector.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <string_view>

using namespace sldb;

namespace {
/// True when \p I may overwrite the frame slot or global from which
/// recovery \p R reads the eliminated value.
bool overwrites(const MInstr &I, const MRecovery &R) {
  const bool Global = R.Frame < 0;
  if (I.Op == MOp::SW || I.Op == MOp::SD)
    return I.AddrReg.isValid() || // Register-indirect: may alias any home.
           (Global ? I.GlobalVar == static_cast<VarId>(R.Imm)
                   : I.FrameSlot == R.Frame);
  return I.Op == MOp::JAL && Global; // The callee may write the global.
}

/// `classifier.queries`: one per variable classified.
StatCounter &queryCount() {
  static StatCounter &C = Stats::counter("classifier.queries");
  return C;
}
} // namespace

const char *sldb::varClassName(VarClass C) {
  switch (C) {
  case VarClass::Uninitialized:
    return "uninitialized";
  case VarClass::Nonresident:
    return "nonresident";
  case VarClass::Noncurrent:
    return "noncurrent";
  case VarClass::Suspect:
    return "suspect";
  case VarClass::Current:
    return "current";
  }
  return "?";
}

const char *sldb::endangerCauseName(EndangerCause C) {
  switch (C) {
  case EndangerCause::None:
    return "none";
  case EndangerCause::Premature:
    return "premature";
  case EndangerCause::MaybePremature:
    return "maybe-premature";
  case EndangerCause::Stale:
    return "stale";
  case EndangerCause::MaybeStale:
    return "maybe-stale";
  }
  return "?";
}

Classifier::Classifier(const MachineFunction &MF, const ProgramInfo &Info,
                       bool EnableRecovery)
    : MF(MF), Info(Info), EnableRecovery(EnableRecovery),
      Total(MF.numInstrs()) {
  // Fault containment: re-verify the debug bookkeeping the verdicts rest
  // on, and fold in whatever damage the pipeline already recorded.  A
  // finding attributed to a variable degrades that variable; a
  // whole-function finding (Var == InvalidVar) degrades them all — a
  // conservative SUSPECT/NONRESIDENT answer beats a crash or a false
  // CURRENT built on corrupt annotations.
  Findings = MF.IntegrityFindings;
  verifyMachineAnnotations(MF, Info, Findings);

  std::uint32_t Addr = 0;
  for (const MachineBlock &B : MF.Blocks)
    for (const MInstr &I : B.Insts) {
      if (I.Op == MOp::MDEAD)
        Markers.push_back(
            {I.MarkVar, I.MarkStmt, Addr, I.Recovery, ~0u, nullptr});
      ++Addr;
    }
  const unsigned NumKeys = static_cast<unsigned>(MF.HoistKeys.size());
  const unsigned NumMarkers = static_cast<unsigned>(Markers.size());

  // The per-variable rows span the ids the function's tables mention.
  // Annotation-supplied ids are bounds-checked against the program's
  // variables (the verifier degrades the function for a bogus one), so
  // they never index past the rows.
  const FuncInfo &FI = Info.func(MF.Id);
  VarId Lo = ~VarId(0), Hi = 0;
  auto Span = [&](VarId V) {
    if (V < Info.Vars.size()) {
      Lo = std::min(Lo, V);
      Hi = std::max(Hi, V + 1);
    }
  };
  for (VarId V : FI.Locals)
    Span(V);
  for (const HoistKey &K : MF.HoistKeys)
    Span(K.V);
  for (const MarkerInfo &M : Markers)
    Span(M.V);
  for (const auto &KV : MF.Storage)
    Span(KV.first);
  for (const auto &KV : MF.ResidentAt)
    Span(KV.first);
  for (const AnnotationFinding &F : Findings)
    Span(F.Var);
  if (Lo < Hi) {
    VarBase = Lo;
    Rows.resize(Hi - Lo);
  }
  auto RowOf = [&](VarId V) -> VarRow * {
    return V - VarBase < Rows.size() ? &Rows[V - VarBase] : nullptr;
  };

  // Number the fact universe.  Initialization tracks this function's
  // scalar locals (the paper's figures measure local variables; globals
  // are conservatively "initialized" and always memory-resident).
  unsigned U = 0;
  for (VarId V : FI.Locals)
    if (VarRow *R = RowOf(V); R && Info.var(V).isScalar() && R->Init == ~0u)
      R->Init = U++;
  FirstKey = U;
  U += NumKeys;
  KeyStmt.assign(NumKeys, InvalidStmt);
  FirstMarker = U;
  U += NumMarkers;

  // Hoist keys and markers per variable, as flat ranges in index order:
  // count, turn the counts into offsets, then place.
  for (const HoistKey &K : MF.HoistKeys)
    if (VarRow *R = RowOf(K.V))
      ++R->KeysEnd;
  for (const MarkerInfo &M : Markers)
    if (VarRow *R = RowOf(M.V))
      ++R->MarkersEnd;
  std::uint32_t KeyOff = 0, MarkerOff = 0;
  for (VarRow &R : Rows) {
    R.KeysBegin = KeyOff;
    KeyOff += R.KeysEnd;
    R.KeysEnd = R.KeysBegin;
    R.MarkersBegin = MarkerOff;
    MarkerOff += R.MarkersEnd;
    R.MarkersEnd = R.MarkersBegin;
  }
  VarKeys.resize(KeyOff);
  VarMarkers.resize(MarkerOff);
  for (unsigned K = 0; K < NumKeys; ++K)
    if (VarRow *R = RowOf(MF.HoistKeys[K].V))
      VarKeys[R->KeysEnd++] = K;
  for (unsigned M = 0; M < NumMarkers; ++M)
    if (VarRow *R = RowOf(Markers[M].V))
      VarMarkers[R->MarkersEnd++] = M;

  for (const auto &[V, S] : MF.Storage)
    if (VarRow *R = RowOf(V))
      R->Storage = &S;
  for (const auto &[V, Bits] : MF.ResidentAt)
    if (VarRow *R = RowOf(V))
      R->Resident = &Bits;
  for (const AnnotationFinding &F : Findings) {
    if (F.Var == InvalidVar)
      DegradeAll = true;
    else if (VarRow *R = RowOf(F.Var))
      R->Degraded = true;
  }

  std::vector<unsigned> Taintable;
  for (unsigned M = 0; M < NumMarkers; ++M) {
    MarkerInfo &MI = Markers[M];
    if (MI.Recovery.K == MRecovery::Kind::InFrame && !MI.Recovery.IsIV) {
      MI.Taint = U++;
      Taintable.push_back(M);
    } else if (MI.Recovery.K == MRecovery::Kind::InReg) {
      auto It = MF.RecoveryValidAt.find(MI.Addr);
      if (It != MF.RecoveryValidAt.end())
        MI.ValidAt = &It->second;
    }
  }

  // The two deliberately *unsound* classifier faults (the fuzzing
  // oracle's teeth — see support/FaultInjector.h).
  const bool HoistGen =
      !FaultInjector::armed(FaultId::ClassifierSuppressHoistGen);
  const bool AssignKillsDead =
      !FaultInjector::armed(FaultId::ClassifierSuppressDeadAssignKill);

  // One walk states each flow rule once, as the decisions of each
  // instruction, in the order they apply.
  auto Decide = [&](unsigned Fact, bool Set) {
    Log.push_back({Addr, Fact, Set});
  };
  Addr = 0;
  for (const MachineBlock &B : MF.Blocks)
    for (const MInstr &I : B.Insts) {
      // Initialization reach: a definition, or a marker standing for an
      // eliminated source assignment, reaches.
      VarId Def = I.DestVar;
      if (Def == InvalidVar && (I.Op == MOp::MDEAD || I.Op == MOp::MAVAIL))
        Def = I.MarkVar;
      if (const VarRow &R = row(Def); R.Init != ~0u)
        Decide(R.Init, true);

      // Hoist reach: an assignment to V kills every key assigning V; an
      // avail marker kills its own key; a hoisted instance gens its key
      // after its own kill (it is an assignment to V).  Keys are
      // bounds-checked (not asserted): a corrupted annotation must
      // degrade the verdict, not index out of the bit vectors.
      for (unsigned K : keysOf(I.DestVar))
        Decide(FirstKey + K, false);
      const bool KeyOk = I.HoistKey != InvalidHoistKey && I.HoistKey < NumKeys;
      if (I.Op == MOp::MAVAIL && KeyOk)
        Decide(FirstKey + I.HoistKey, false);
      if (I.IsHoisted && I.DestVar != InvalidVar && KeyOk) {
        if (HoistGen)
          Decide(FirstKey + I.HoistKey, true);
        if (KeyStmt[I.HoistKey] == InvalidStmt)
          KeyStmt[I.HoistKey] = I.Stmt;
      }

      // Dead reach: real assignments to V kill V's markers; avail markers
      // for V kill too (at that point actual == expected, see header
      // comment).  The *last* eliminated assignment to V defines its
      // expected value (Definition 2): a marker supersedes every other
      // marker of the same variable.
      VarId Killed = I.DestVar != InvalidVar && AssignKillsDead ? I.DestVar
                     : I.Op == MOp::MAVAIL                     ? I.MarkVar
                                                               : InvalidVar;
      for (unsigned M : markersOf(Killed))
        Decide(FirstMarker + M, false);
      if (I.Op == MOp::MDEAD)
        for (unsigned M : markersOf(I.MarkVar))
          Decide(FirstMarker + M, Markers[M].Addr == Addr);

      // Recovery taint: a frame or global recovery is valid at A iff *no*
      // path from the marker to A crosses a write to the slot / global
      // after the marker (IV-invariant relations survive updates, so they
      // have no taint fact).  This must be a may-taint data flow, not a
      // single forward walk: with a loop whose body writes the slot, the
      // head is reachable both write-free (first entry) and through the
      // write (back edge), and one tainted path already makes the
      // recovered value a lie on some execution (found by the
      // differential fuzzer: `v2 = v4` eliminated before a loop that
      // reassigns v4).  Re-executing the marker re-binds the recovery to
      // the slot's current value, so the marker clears the taint.
      for (unsigned M : Taintable)
        if (Markers[M].Addr == Addr)
          Decide(Markers[M].Taint, false);
        else if (overwrites(I, Markers[M].Recovery))
          Decide(Markers[M].Taint, true);
      ++Addr;
    }
  SomeFlow.assign(MF, U, Log, FlowMeet::Union);
  AllFlow.assign(MF, U, Log, FlowMeet::Intersect);
}

Classifier::AddrState Classifier::stateAt(std::uint32_t Addr) const {
  Addr = std::min(Addr, Total);
  return {SomeFlow.at(Addr), AllFlow.at(Addr)};
}

bool Classifier::recoveryValid(unsigned M, std::uint32_t Addr,
                               const AddrState &AS) const {
  const MarkerInfo &MI = Markers[M];
  switch (MI.Recovery.K) {
  case MRecovery::Kind::None:
    return false;
  case MRecovery::Kind::Imm:
  case MRecovery::Kind::FImm:
    return Addr < Total; // Constants are always recoverable.
  case MRecovery::Kind::InReg:
    return MI.ValidAt && Addr < MI.ValidAt->size() && MI.ValidAt->test(Addr);
  case MRecovery::Kind::InFrame:
    // Stop-before semantics: the marker itself is always a valid point.
    return Addr < Total && (MI.Taint == ~0u || Addr == MI.Addr ||
                            !AS.Some.test(MI.Taint));
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Classification (Figure 1)
//===----------------------------------------------------------------------===//

Classification Classifier::classifyDegraded(const AddrState &AS, VarId V,
                                            Explanation *E) const {
  // Fail-safe path for variables whose bookkeeping failed verification.
  // Only facts a corrupt annotation cannot skew toward optimism are
  // used: initialization reach (losing a marker only *clears* a def,
  // erring toward Uninitialized) and the storage home's kind.  Hoist and
  // dead reach, residence bits, and recovery are all distrusted, so the
  // verdict is never Current and never Recoverable — memory-resident
  // homes answer Suspect, register homes and the rest Nonresident.
  Classification C;
  C.Degraded = true;
  const VarInfo &VI = Info.var(V);

  if (E) {
    E->DegradedPath = true;
    for (const AnnotationFinding &F : Findings)
      if (F.Var == V || F.Var == InvalidVar)
        E->Findings.push_back(F);
    E->Storage = renderStorage(V);
  }
  auto Done = [&](const char *Rule) {
    if (E) {
      E->Rule = Rule;
      E->Result = C;
    }
    return C;
  };

  const VarRow &Row = row(V);
  if (VI.Storage != StorageKind::Global) {
    bool Tracked = Row.Init != ~0u;
    bool Reached = Tracked && AS.Some.test(Row.Init);
    if (E) {
      E->InitTracked = Tracked;
      E->InitReached = Reached;
    }
    if (!Reached) {
      C.Kind = VarClass::Uninitialized;
      return Done("degraded: init-reach (uninitialized)");
    }
  } else if (E) {
    E->GlobalAssumedInit = true;
  }

  if (VI.Storage == StorageKind::Global) {
    C.Kind = VarClass::Suspect;
    C.Cause = EndangerCause::MaybeStale;
    return Done("degraded: memory home (suspect)");
  }
  if (Row.Storage && Row.Storage->K == VarStorage::Kind::Frame) {
    C.Kind = VarClass::Suspect;
    C.Cause = EndangerCause::MaybeStale;
    return Done("degraded: memory home (suspect)");
  }
  C.Kind = VarClass::Nonresident;
  return Done("degraded: register home (nonresident)");
}

Classification Classifier::classify(std::uint32_t Addr, VarId V,
                                    Explanation *E) const {
  queryCount().add();
  return classifyAt(Addr, stateAt(Addr), V, E);
}

Classification Classifier::classifyAt(std::uint32_t Addr, const AddrState &AS,
                                      VarId V, Explanation *E) const {
  if (E) {
    E->V = V;
    E->Addr = Addr;
    E->RecoveryEnabled = EnableRecovery;
  }
  const VarRow &Row = row(V);
  if (DegradeAll || Row.Degraded) {
    static StatCounter &DegradedCount =
        Stats::counter("classifier.queries.degraded");
    DegradedCount.add();
    return classifyDegraded(AS, V, E);
  }

  Classification C;
  const VarInfo &VI = Info.var(V);

  auto Done = [&](const char *Rule) {
    if (E) {
      E->Rule = Rule;
      E->Result = C;
    }
    return C;
  };

  // Provenance is recorded as pure reads of the same per-address state
  // the verdict uses; nothing below branches on E except the recording
  // itself, so explain mode cannot perturb the decision.
  const std::span<const unsigned> Keys = keysOf(V), Marks = markersOf(V);
  if (E) {
    for (unsigned K : Keys)
      E->Hoists.push_back({K, KeyStmt[K], renderHoistKeyExpr(K),
                           AS.Some.test(FirstKey + K),
                           AS.All.test(FirstKey + K)});
    for (unsigned M : Marks)
      E->Deads.push_back({M, Markers[M].Stmt, Markers[M].Addr,
                          AS.Some.test(FirstMarker + M),
                          AS.All.test(FirstMarker + M),
                          renderRecovery(Markers[M].Recovery),
                          recoveryValid(M, Addr, AS)});
  }

  // 1. Initialization (locals only; globals assumed initialized).
  if (VI.Storage != StorageKind::Global) {
    // A variable the function never touches is in scope but was never
    // assigned (or its assignments were all optimized away with no
    // marker, which cannot happen) — uninitialized.
    bool Tracked = Row.Init != ~0u;
    bool Reached = Tracked && AS.Some.test(Row.Init);
    if (E) {
      E->InitTracked = Tracked;
      E->InitReached = Reached;
    }
    if (!Reached) {
      C.Kind = VarClass::Uninitialized;
      return Done("init-reach (uninitialized)");
    }
  } else if (E) {
    E->GlobalAssumedInit = true;
  }

  // 2. Recovery (paper §2.5): if on *all* paths the expected value of V
  // stems from one eliminated assignment whose right-hand side survives
  // (in a temporary, a variable, or as a constant), the dead reach of V
  // is killed by the surviving expression and V's residence is the
  // expression's storage — the debugger displays the expected value with
  // no further warning ("these two variables are aliased").
  //
  // We therefore evaluate dead-reach-with-recovery before the residence
  // check: recovery supplies residence.
  bool DeadAll = false, DeadSome = false;
  int DeadAllMarker = -1;
  unsigned DeadAllCount = 0;
  for (unsigned M : Marks) {
    if (AS.All.test(FirstMarker + M)) {
      DeadAll = true;
      DeadAllMarker = static_cast<int>(M);
      ++DeadAllCount;
    } else if (AS.Some.test(FirstMarker + M)) {
      DeadSome = true;
    }
  }
  if (EnableRecovery && DeadAll && DeadAllCount == 1 &&
      recoveryValid(static_cast<unsigned>(DeadAllMarker), Addr, AS)) {
    if (E)
      E->RecoveryAttempted = true;
    // Variable-sourced recovery (`c = a` eliminated, recover c from a) is
    // only sound if `a` itself holds its expected value at the marker: if
    // any dead marker or hoisted instance of `a` can reach the marker,
    // the alias would launder an endangered value (the extreme case is a
    // deleted self-copy `v = v`).
    bool SrcSound = true;
    VarId Src = Markers[DeadAllMarker].Recovery.SrcVar;
    if (Src != InvalidVar) {
      std::uint32_t MAddr = Markers[DeadAllMarker].Addr;
      if (Src == V) {
        SrcSound = false; // Self-referential alias: never trustworthy.
        if (E)
          E->RecoveryNote = "rejected: self-referential alias";
      } else {
        const AddrState MS = stateAt(MAddr);
        for (unsigned M : markersOf(Src))
          if (MS.Some.test(FirstMarker + M))
            SrcSound = false;
        for (unsigned K : keysOf(Src))
          if (MS.Some.test(FirstKey + K))
            SrcSound = false;
        if (!SrcSound && E)
          E->RecoveryNote = "rejected: source variable '" +
                            Info.var(Src).Name +
                            "' is itself endangered at the marker";
      }
    }
    if (SrcSound) {
      C.Kind = VarClass::Current;
      C.Recoverable = true;
      C.Recovery = Markers[DeadAllMarker].Recovery;
      C.CulpritStmt = Markers[DeadAllMarker].Stmt;
      return Done("recovery (paper 2.5)");
    }
  } else if (E && DeadAll) {
    if (!EnableRecovery)
      E->RecoveryNote = "not attempted: recovery disabled";
    else if (DeadAllCount != 1)
      E->RecoveryNote =
          "not attempted: multiple eliminated assignments reach on all paths";
    else if (Markers[DeadAllMarker].Recovery.K == MRecovery::Kind::None)
      E->RecoveryNote =
          "not attempted: the eliminated value survives nowhere";
    else
      E->RecoveryNote =
          "not attempted: the surviving copy is overwritten by this point";
  }

  // 3. Residence (the conservative live-range model of [3]).
  bool Resident = true;
  if (VI.Storage == StorageKind::Global) {
    Resident = true;
  } else if (!Row.Storage || Row.Storage->K == VarStorage::Kind::None) {
    Resident = false;
  } else if (Row.Storage->K == VarStorage::Kind::InReg) {
    Resident = Row.Resident && Addr < Row.Resident->size() &&
               Row.Resident->test(Addr);
  }
  if (E) {
    E->ResidenceConsulted = true;
    E->Resident = Resident;
    E->Storage = renderStorage(V);
  }
  if (!Resident) {
    C.Kind = VarClass::Nonresident;
    return Done("residence (nonresident)");
  }

  // 4. Hoist reach (Lemmas 2 and 3).
  bool HoistAll = false, HoistSome = false;
  StmtId HoistStmt = InvalidStmt;
  for (unsigned K : Keys) {
    if (AS.All.test(FirstKey + K)) {
      HoistAll = true;
      HoistStmt = KeyStmt[K];
    } else if (AS.Some.test(FirstKey + K)) {
      HoistSome = true;
      HoistStmt = KeyStmt[K];
    }
  }
  if (HoistAll) {
    C.Kind = VarClass::Noncurrent;
    C.Cause = EndangerCause::Premature;
    C.CulpritStmt = HoistStmt;
    return Done("hoist-all (Lemma 2)");
  }

  // 5. Dead reach without recovery (Lemmas 4 and 5).
  if (DeadAll) {
    C.Kind = VarClass::Noncurrent;
    C.Cause = EndangerCause::Stale;
    C.CulpritStmt = Markers[DeadAllMarker].Stmt;
    return Done("dead-all (Lemma 5)");
  }

  // 6. Suspect (Lemmas 3 and 6).
  if (HoistSome) {
    C.Kind = VarClass::Suspect;
    C.Cause = EndangerCause::MaybePremature;
    C.CulpritStmt = HoistStmt;
    return Done("hoist-some (Lemma 3)");
  }
  if (DeadSome) {
    C.Kind = VarClass::Suspect;
    C.Cause = EndangerCause::MaybeStale;
    return Done("dead-some (Lemma 6)");
  }

  C.Kind = VarClass::Current;
  return Done("current (no endangerment reaches)");
}

Explanation Classifier::explain(std::uint32_t Addr, VarId V) const {
  Explanation E;
  classify(Addr, V, &E);
  return E;
}

void Classifier::classifyAll(std::uint32_t Addr, std::span<const VarId> Vs,
                             std::vector<Classification> &Out) const {
  queryCount().add(Vs.size());
  const AddrState AS = stateAt(Addr);
  Out.clear();
  for (VarId V : Vs)
    Out.push_back(classifyAt(Addr, AS, V, nullptr));
}

//===----------------------------------------------------------------------===//
// Explain mode: provenance rendering
//===----------------------------------------------------------------------===//

std::string Classifier::renderHoistKeyExpr(unsigned Key) const {
  const HoistKey &HK = MF.HoistKeys[Key];
  auto Operand = [&](const Value &Val) -> std::string {
    switch (Val.K) {
    case Value::Kind::None:
      return "";
    case Value::Kind::Temp:
      return "t" + std::to_string(Val.Id);
    case Value::Kind::Var:
      return Info.var(Val.Id).Name;
    case Value::Kind::ConstInt:
      return std::to_string(Val.IntVal);
    case Value::Kind::ConstDouble: {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%g", Val.DblVal);
      return Buf;
    }
    }
    return "";
  };
  std::string S = Info.var(HK.V).Name + " = " + opcodeName(HK.Op);
  std::string A = Operand(HK.A), B = Operand(HK.B);
  if (!A.empty())
    S += " " + A;
  if (!B.empty())
    S += ", " + B;
  return S;
}

std::string Classifier::renderRecovery(const MRecovery &R) const {
  std::string S;
  switch (R.K) {
  case MRecovery::Kind::None:
    return "";
  case MRecovery::Kind::Imm:
    S = "constant " + std::to_string(R.Imm);
    break;
  case MRecovery::Kind::FImm: {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "constant %g", R.FImm);
    S = Buf;
    break;
  }
  case MRecovery::Kind::InReg:
    S = "register " + R.R.str();
    break;
  case MRecovery::Kind::InFrame:
    if (R.Frame < 0)
      S = "global '" + Info.var(static_cast<VarId>(R.Imm)).Name + "'";
    else
      S = "frame slot " + std::to_string(R.Frame);
    break;
  }
  if (R.SrcVar != InvalidVar)
    S += " (variable '" + Info.var(R.SrcVar).Name + "')";
  if (R.Scale != 1)
    S += " scaled by 1/" + std::to_string(R.Scale);
  if (R.IsIV)
    S += " [loop-invariant relation]";
  return S;
}

std::string Classifier::renderStorage(VarId V) const {
  if (Info.var(V).Storage == StorageKind::Global)
    return "global memory";
  if (const VarStorage *S = storage(V)) {
    switch (S->K) {
    case VarStorage::Kind::InReg:
      return "register " + S->R.str();
    case VarStorage::Kind::Frame:
      return "frame slot " + std::to_string(S->Frame);
    case VarStorage::Kind::GlobalMem:
      return "global memory";
    case VarStorage::Kind::None:
      break;
    }
  }
  return "no storage home (never materialized)";
}

std::string Classifier::renderExplainText(const Explanation &X) const {
  const std::string &Name = Info.var(X.V).Name;
  const FuncInfo &FI = Info.func(MF.Id);
  std::string S;

  S += "explain '" + Name + "' at " + MF.Name + "+" + std::to_string(X.Addr);
  for (StmtId St = 0; St < MF.StmtAddr.size(); ++St)
    if (MF.StmtAddr[St] >= 0 &&
        MF.StmtAddr[St] == static_cast<std::int32_t>(X.Addr)) {
      S += " (stmt " + std::to_string(St);
      if (St < FI.Stmts.size() && FI.Stmts[St].Loc.isValid())
        S += ", line " + std::to_string(FI.Stmts[St].Loc.Line);
      S += ")";
      break;
    }
  S += "\n";

  S += "verdict: ";
  S += varClassName(X.Result.Kind);
  if (X.Result.Cause != EndangerCause::None) {
    S += " (";
    S += endangerCauseName(X.Result.Cause);
    S += ")";
  }
  if (X.Result.Recoverable)
    S += " [recoverable]";
  if (X.Result.Degraded)
    S += " [degraded]";
  S += "\n";

  S += "provenance:\n";

  if (X.DegradedPath) {
    S += "  degraded: the debug annotations for this variable failed "
         "integrity verification; fail-safe path used\n";
    for (const AnnotationFinding &F : X.Findings)
      S += "    finding: " + F.Message + "\n";
  }

  if (X.GlobalAssumedInit)
    S += "  init-reach: '" + Name + "' is a global, assumed initialized\n";
  else if (!X.InitTracked)
    S += "  init-reach: the function never assigns '" + Name + "'\n";
  else if (!X.InitReached)
    S += "  init-reach: no definition of '" + Name +
         "' reaches this point\n";
  else
    S += "  init-reach: a definition of '" + Name + "' reaches this point\n";

  if (X.DegradedPath) {
    // Degraded verdicts come from the storage table alone; the normal
    // chain below was distrusted wholesale.
    S += "  storage: " + X.Storage + "\n";
    S += "  hoist-reach, dead-reach, residence, recovery: distrusted "
         "(annotations failed verification)\n";
  } else {
    const bool InitDecided = X.Result.Kind == VarClass::Uninitialized;

    S += "  recovery (paper 2.5): ";
    if (InitDecided) {
      S += "not consulted (decided at init-reach)";
    } else if (X.Result.Recoverable) {
      S += "expected value recovered";
      for (const Explanation::DeadFact &D : X.Deads)
        if (D.AllPath && !D.Recovery.empty()) {
          S += " from " + D.Recovery;
          break;
        }
    } else if (!X.RecoveryNote.empty()) {
      S += X.RecoveryNote;
    } else if (!X.RecoveryEnabled) {
      S += "disabled";
    } else {
      S += "no eliminated assignment of '" + Name +
           "' reaches on all paths";
    }
    S += "\n";

    S += "  residence: ";
    if (X.Result.Recoverable)
      S += "supplied by the recovery source";
    else if (!X.ResidenceConsulted)
      S += "not consulted (decided earlier)";
    else
      S += X.Storage + (X.Resident ? " -- resident here"
                                   : " -- not resident here");
    S += "\n";

    if (X.Hoists.empty()) {
      S += "  hoist-reach: no hoisted assignment of '" + Name +
           "' exists\n";
    } else {
      S += "  hoist-reach:\n";
      for (const Explanation::HoistFact &H : X.Hoists) {
        S += "    key#" + std::to_string(H.Key) + " '" + H.Expr + "'";
        if (H.Stmt != InvalidStmt)
          S += " (stmt " + std::to_string(H.Stmt) + ")";
        S += ": ";
        if (H.AllPath)
          S += "hoisted instance reaches on ALL paths [Lemma 2]";
        else if (H.SomePath)
          S += "hoisted instance reaches on SOME paths [Lemma 3]";
        else
          S += "no hoisted instance reaches";
        S += "\n";
      }
    }

    if (X.Deads.empty()) {
      S += "  dead-reach: no eliminated assignment of '" + Name +
           "' exists\n";
    } else {
      S += "  dead-reach:\n";
      for (const Explanation::DeadFact &D : X.Deads) {
        S += "    marker@" + MF.Name + "+" + std::to_string(D.MarkerAddr);
        if (D.Stmt != InvalidStmt)
          S += " (stmt " + std::to_string(D.Stmt) + ")";
        S += ": ";
        if (D.AllPath)
          S += "eliminated assignment reaches on ALL paths [Lemma 5]";
        else if (D.SomePath)
          S += "eliminated assignment reaches on SOME paths [Lemma 6]";
        else
          S += "does not reach";
        if (!D.Recovery.empty()) {
          S += "; value survives in " + D.Recovery;
          S += D.RecoveryValidHere ? " (valid here)" : " (not valid here)";
        }
        S += "\n";
      }
    }
  }

  S += "rule: " + X.Rule + "\n";
  std::string W = warningText(X.Result, Info.var(X.V).Name);
  S += "warning: " + (W.empty() ? std::string("none") : W) + "\n";
  return S;
}

std::string Classifier::renderExplainJson(const Explanation &X) const {
  std::string S = "{";
  auto Raw = [&S](const char *K, const std::string &V) {
    appendJsonString(S, K);
    S += ':';
    S += V;
  };
  auto Str = [&S](const char *K, const std::string &V) {
    appendJsonString(S, K);
    S += ':';
    appendJsonString(S, V);
  };
  auto Bool = [&Raw](const char *K, bool V) { Raw(K, V ? "true" : "false"); };
  auto Stmt = [](StmtId St) {
    return St == InvalidStmt ? std::string("-1") : std::to_string(St);
  };

  Str("var", Info.var(X.V).Name);
  S += ',';
  Raw("varId", std::to_string(X.V));
  S += ',';
  Str("function", MF.Name);
  S += ',';
  Raw("addr", std::to_string(X.Addr));
  S += ',';

  S += "\"verdict\":{";
  Str("class", varClassName(X.Result.Kind));
  S += ',';
  Str("cause", endangerCauseName(X.Result.Cause));
  S += ',';
  Raw("culpritStmt", Stmt(X.Result.CulpritStmt));
  S += ',';
  Bool("recoverable", X.Result.Recoverable);
  S += ',';
  Bool("degraded", X.Result.Degraded);
  S += ',';
  Str("warning", warningText(X.Result, Info.var(X.V).Name));
  S += "},";

  Bool("degradedPath", X.DegradedPath);
  S += ',';
  S += "\"findings\":[";
  for (std::size_t I = 0; I < X.Findings.size(); ++I) {
    if (I)
      S += ',';
    appendJsonString(S, X.Findings[I].Message);
  }
  S += "],";

  S += "\"init\":{";
  Bool("globalAssumed", X.GlobalAssumedInit);
  S += ',';
  Bool("tracked", X.InitTracked);
  S += ',';
  Bool("reached", X.InitReached);
  S += "},";

  S += "\"recovery\":{";
  Bool("enabled", X.RecoveryEnabled);
  S += ',';
  Bool("attempted", X.RecoveryAttempted);
  S += ',';
  Str("note", X.RecoveryNote);
  S += "},";

  S += "\"residence\":{";
  Bool("consulted", X.ResidenceConsulted);
  S += ',';
  Bool("resident", X.Resident);
  S += ',';
  Str("storage", X.Storage);
  S += "},";

  S += "\"hoistReach\":[";
  for (std::size_t I = 0; I < X.Hoists.size(); ++I) {
    const Explanation::HoistFact &H = X.Hoists[I];
    if (I)
      S += ',';
    S += '{';
    Raw("key", std::to_string(H.Key));
    S += ',';
    Raw("stmt", Stmt(H.Stmt));
    S += ',';
    Str("expr", H.Expr);
    S += ',';
    Bool("somePath", H.SomePath);
    S += ',';
    Bool("allPath", H.AllPath);
    S += '}';
  }
  S += "],";

  S += "\"deadReach\":[";
  for (std::size_t I = 0; I < X.Deads.size(); ++I) {
    const Explanation::DeadFact &D = X.Deads[I];
    if (I)
      S += ',';
    S += '{';
    Raw("marker", std::to_string(D.Marker));
    S += ',';
    Raw("stmt", Stmt(D.Stmt));
    S += ',';
    Raw("addr", std::to_string(D.MarkerAddr));
    S += ',';
    Bool("somePath", D.SomePath);
    S += ',';
    Bool("allPath", D.AllPath);
    S += ',';
    Str("recovery", D.Recovery);
    S += ',';
    Bool("validHere", D.RecoveryValidHere);
    S += '}';
  }
  S += "],";

  Str("rule", X.Rule);
  S += '}';
  return S;
}

std::string sldb::warningText(const Classification &C,
                              std::string_view Name) {
  if (C.Kind == VarClass::Current && !C.Degraded)
    return "";
  // Each warning is built in one reserved buffer.
  auto Say = [Name](std::initializer_list<std::string_view> Parts) {
    std::string S;
    S.reserve(Name.size() + 128);
    for (std::string_view P : Parts)
      S += P;
    return S;
  };
  char Buf[32] = "statement ";
  std::string_view StmtRef = "an optimized statement";
  if (C.CulpritStmt != InvalidStmt) {
    char *End = std::to_chars(Buf + 10, std::end(Buf), C.CulpritStmt).ptr;
    StmtRef = {Buf, static_cast<std::size_t>(End - Buf)};
  }
  if (C.Degraded)
    return Say({"'", Name, "' is ", varClassName(C.Kind),
                " (conservative: the debug annotations for this variable "
                "failed integrity verification)"});
  switch (C.Kind) {
  case VarClass::Current:
    return "";
  case VarClass::Uninitialized:
    return Say({"'", Name, "' is uninitialized here"});
  case VarClass::Nonresident:
    return Say({"value of '", Name,
                "' is unavailable (register reused by the allocator)"});
  case VarClass::Noncurrent:
    if (C.Cause == EndangerCause::Premature)
      return Say({"'", Name, "' is noncurrent: the assignment at ", StmtRef,
                  " has already executed (hoisted)"});
    if (C.Recoverable)
      return Say({"'", Name, "' is noncurrent: the assignment at ", StmtRef,
                  " was eliminated; expected value recovered from a "
                  "temporary"});
    return Say({"'", Name, "' is noncurrent: the assignment at ", StmtRef,
                " was eliminated; the displayed value is stale"});
  case VarClass::Suspect:
    if (C.Cause == EndangerCause::MaybePremature)
      return Say({"'", Name, "' is suspect: the assignment at ", StmtRef,
                  " may have executed prematurely on the path taken"});
    return Say({"'", Name,
                "' is suspect: an eliminated assignment may make this value "
                "stale on the path taken"});
  }
  return "";
}
